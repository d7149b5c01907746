//! perfbench: end-to-end and per-layer benchmark of the Cyclone pipeline
//! (code construction, QCCD compile, noise channel, BP+OSD Monte-Carlo, sweep
//! engine and caches). `README.md` next to this crate describes the workloads
//! and every metric.
//!
//! ```text
//! perfbench --workload <compile-all|ler-uniform|hetero-cached> [--seed N]
//!           [--seconds S] [--trace 0|1] [--spans FILE]
//!           [--quick] [--emit-pins]
//! ```
//!
//! The last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`).

mod ledger;
mod pins;
mod trace;
mod work;

use ledger::{Roots, SweepFigures};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use work::{Counters, Params, Pass, Record, Setup, Workload};

/// Set-ups timed before the first rep, and after each rep. `setup_s` and
/// `qec.build_s` are medians over all of them: sampling set-up at several
/// moments of the run keeps one short CPU-speed phase at process start from
/// deciding the figure.
const SETUP_REPEATS: usize = 25;
const SETUP_REPEATS_PER_REP: usize = 10;
/// Reruns per rep of a workload with a cache. Its warm pass takes about a
/// tenth of the cold pass; several per rep let `rerun_s` cover a larger share
/// of the run.
const WARM_RERUNS: usize = 5;
/// Monte-Carlo point-pool size (capped at the host's cores).
const POOL_THREADS: usize = 2;
/// Every file a run writes lives in a fresh per-run subdirectory of this
/// directory (relative to the working directory), removed at exit.
const TMP_ROOT: &str = ".bench_tmp";

struct Args {
    params: Params,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    emit_pins: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <compile-all|ler-uniform|hetero-cached> [--seed N] \
         [--seconds S] [--trace 0|1] [--spans FILE] [--quick] [--emit-pins]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> T {
    raw.as_deref()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a valid value")))
}

fn parse_args(nproc: usize) -> Args {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = pins::DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut spans = None;
    let mut quick = false;
    let mut emit_pins = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = parse(&flag, args.next());
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{name}`"))),
                );
            }
            "--seed" => seed = parse(&flag, args.next()),
            "--seconds" => seconds = parse(&flag, args.next()),
            "--trace" => {
                trace = match parse::<u8>(&flag, args.next()) {
                    0 => false,
                    1 => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--spans" => spans = Some(parse::<PathBuf>(&flag, args.next())),
            "--quick" => quick = true,
            "--emit-pins" => emit_pins = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    Args {
        params: Params {
            workload,
            seed,
            threads: POOL_THREADS.min(nproc),
            quick,
        },
        seconds,
        trace,
        spans,
        emit_pins,
    }
}

/// A directory removed (with its contents) when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn fresh(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        // A concurrent run may remove the shared, empty parent at its exit
        // between our creating it and creating `path`: try again once.
        if let Err(e) = std::fs::create_dir_all(&path).or_else(|_| std::fs::create_dir_all(&path)) {
            panic!("cannot create {}: {e}", path.display());
        }
        TempDir(path)
    }

    fn child(&self, name: &str) -> TempDir {
        TempDir::fresh(self.0.join(name))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Timed set-ups: codes, registry, compile order and a fresh run directory.
struct SetupSamples {
    params: Params,
    total: Vec<f64>,
    build: Vec<f64>,
}

impl SetupSamples {
    /// Sets up `n` times, timing each, and returns the last set-up.
    fn take(&mut self, n: usize) -> (Setup, TempDir) {
        let mut kept = None;
        for _ in 0..n {
            let t = Instant::now();
            let (setup, build) = work::setup(&self.params);
            let root = TempDir::fresh(Path::new(TMP_ROOT).join(format!(
                "run-{}-{}",
                std::process::id(),
                self.total.len()
            )));
            self.total.push(t.elapsed().as_secs_f64());
            self.build.push(build);
            kept = Some((setup, root));
        }
        kept.expect("at least one set-up")
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The mean of a run's timing samples, for samples shorter than a shared
/// host's speed phases. Each such sample falls wholly inside a fast or a slow
/// phase, so their median flips between the two with the share of slow phases
/// a run happens to catch; their mean weighs the phases by time, as one long
/// sample does.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Checks the reference records of a run against the pins. Returns a status
/// and, per record, whether it agrees with its pin.
fn check_pins(p: &Params, records: &[Record]) -> (String, Vec<bool>) {
    let all = |ok: bool| vec![ok; records.len()];
    if p.quick {
        return ("unpinned (--quick)".into(), all(true));
    }
    let (pinned, points) = match p.workload {
        Workload::CompileAll => (pins::COMPILE_ALL_DIGEST, &[][..]),
        Workload::LerUniform => (pins::LER_UNIFORM_DIGEST, pins::LER_UNIFORM_POINTS),
        Workload::HeteroCached => (pins::HETERO_CACHED_DIGEST, pins::HETERO_CACHED_POINTS),
    };
    if p.workload == Workload::CompileAll || p.seed == pins::DEFAULT_SEED {
        let ok = work::digest(records) == pinned;
        return (if ok { "match" } else { "MISMATCH" }.into(), all(ok));
    }
    // Another seed: each point keeps its pinned latency exactly, and its
    // failure count agrees with the pinned one within 5 standard deviations
    // of the difference of two binomial counts (plus slack for tiny counts).
    let oks: Vec<bool> = (0..records.len())
        .map(|i| {
            let r = &records[i];
            points.get(i).is_some_and(|&(id, latency, f0)| {
                let (f, f0) = (r.failures() as f64, f0 as f64);
                id == r.id
                    && latency == r.latency_bits()
                    && (f - f0).abs() <= 5.0 * (f + f0).sqrt() + 5.0
            })
        })
        .collect();
    let agree = oks.iter().filter(|&&ok| ok).count();
    let whole = agree == oks.len() && points.len() == records.len();
    (
        format!(
            "{}: {agree}/{} points within tolerance of seed {}",
            if whole {
                "statistical"
            } else {
                "STATISTICAL MISMATCH"
            },
            records.len(),
            pins::DEFAULT_SEED
        ),
        oks,
    )
}

/// Prints the pin block of `pins.rs` for this workload's records.
fn emit_pins(p: &Params, records: &[Record]) {
    let prefix = p.workload.name().to_uppercase().replace('-', "_");
    println!(
        "pub const {prefix}_DIGEST: u64 = 0x{:016x};",
        work::digest(records)
    );
    if p.workload != Workload::CompileAll {
        println!("pub const {prefix}_POINTS: &[(&str, u64, u64)] = &[");
        for r in records {
            println!(
                "    (\"{}\", 0x{:016x}, {}),",
                r.id,
                r.latency_bits(),
                r.failures()
            );
        }
        println!("];");
    }
}

/// Operation tally of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Counts `pass`'s operations; one fails if it failed its own check, its
    /// pin, or differs from the reference record. `warm` passes must be served
    /// entirely from the cache, first passes must compute every point.
    fn add(&mut self, pass: &Pass, reference: &[Record], pinned: &[bool], warm: bool) {
        let cache_ok = if warm {
            pass.cached == pass.records.len()
        } else {
            pass.cached == 0
        };
        self.attempted += pass.records.len().max(reference.len());
        self.failed += pass.records.len().abs_diff(reference.len());
        for (i, r) in pass.records.iter().enumerate() {
            let ok = r.valid && cache_ok && reference.get(i) == Some(r) && pinned[i];
            self.failed += usize::from(!ok);
        }
    }
}

/// Runs `step` until the next one would end after `seconds`, and at least
/// `period` times so that every kind of step is measured. Steps `period` apart
/// do the same work, so the next step's time is predicted from theirs.
fn repeat<T>(seconds: f64, period: usize, mut step: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        out.push(step(out.len()));
        secs.push(t.elapsed().as_secs_f64());
        if out.len() >= period {
            let alike: Vec<f64> = secs[out.len() % period..]
                .iter()
                .step_by(period)
                .copied()
                .collect();
            if start.elapsed().as_secs_f64() + median(&alike) > seconds {
                return out;
            }
        }
    }
}

struct Outcome {
    tally: Tally,
    digest: u64,
    pin: String,
    reps: usize,
    metrics: Vec<(String, f64, &'static str)>,
    traced_digest: Option<u64>,
}

/// `--trace 0`: reps of a first pass and its reruns (one, or [`WARM_RERUNS`]
/// warm passes on a workload with a cache) in a fresh directory each. The run
/// stops between passes, not reps: a pass of `compile-all` or `ler-uniform`
/// takes a large share of the run, and whole reps of two such passes would
/// leave up to half of it unused.
fn untraced(
    p: &Params,
    s: &Setup,
    root: &TempDir,
    seconds: f64,
    samples: &mut SetupSamples,
) -> Outcome {
    let reruns = if p.workload.has_cache() {
        WARM_RERUNS
    } else {
        1
    };
    let per_rep = 1 + reruns;
    let mut dir = None;
    let passes = repeat(seconds, per_rep, |i| {
        if i % per_rep == 0 {
            if i > 0 {
                samples.take(SETUP_REPEATS_PER_REP);
            }
            dir = Some(root.child(&format!("rep-{}", i / per_rep)));
        }
        work::pass(p, s, &dir.as_ref().expect("rep directory").0)
    });
    drop(dir);
    let reps: Vec<&[Pass]> = passes.chunks(per_rep).collect();
    let reference = &passes[0].records;
    let (pin, pinned) = check_pins(p, reference);
    let mut tally = Tally::default();
    for rep in &reps {
        tally.add(&rep[0], reference, &pinned, false);
        for r in &rep[1..] {
            tally.add(r, reference, &pinned, p.workload.has_cache());
        }
    }
    let first: Vec<f64> = reps.iter().map(|r| r[0].secs).collect();
    let rerun: Vec<f64> = reps.iter().flat_map(|r| &r[1..]).map(|r| r.secs).collect();
    eprintln!("perfbench samples wall_s={first:.4?}");
    eprintln!("perfbench samples rerun_s={rerun:.4?}");
    Outcome {
        tally,
        digest: work::digest(reference),
        pin,
        reps: reps.len(),
        metrics: vec![
            ("wall_s".into(), median(&first), "s"),
            ("rerun_s".into(), mean(&rerun), "s"),
        ],
        traced_digest: None,
    }
}

/// `--trace 1`: pairs of (untraced first pass, traced rep). The traced rep
/// replays the workload one layer down with spans; its records must equal the
/// untraced pass's.
fn traced(
    p: &Params,
    s: &Setup,
    root: &TempDir,
    seconds: f64,
    spans_out: Option<&Path>,
    samples: &mut SetupSamples,
) -> Outcome {
    let labels: Vec<&str> = s.registry.labels();
    let pairs = repeat(seconds, 1, |i| {
        let plain_dir = root.child(&format!("pair-{i}-plain"));
        let traced_dir = root.child(&format!("pair-{i}-traced"));
        let plain = work::pass(p, s, &plain_dir.0);
        let tracer = Tracer::new();
        let mut counters = Counters::default();
        let (cold, cold_root) = work::traced_cold(p, s, &traced_dir.0, &tracer, &mut counters);
        let warm = p
            .workload
            .has_cache()
            .then(|| work::traced_warm(p, s, &traced_dir.0, &plain_dir.0, &tracer, &mut counters));
        let roots = Roots {
            cold: cold_root,
            warm: warm.as_ref().map(|w| w.1),
        };
        let figures = SweepFigures {
            points_computed: cold.computed + warm.as_ref().map_or(0, |w| w.0.computed),
            points_cached: cold.cached + warm.as_ref().map_or(0, |w| w.0.cached),
            cache_bytes: work::dir_bytes(&work::sweep_dir(&plain_dir.0)),
            workers: p.threads.min(cold.records.len()).max(1),
        };
        let spans = tracer.spans();
        let layers = ledger::layer_metrics(&spans, &roots, &labels, &counters, &figures);
        let lines = ledger::ledger_lines(&spans, &roots);
        drop((plain_dir, traced_dir));
        samples.take(SETUP_REPEATS_PER_REP);
        (plain, cold, warm.map(|w| w.0), layers, lines, tracer)
    });
    let reference = &pairs[0].0.records;
    let (pin, pinned) = check_pins(p, reference);
    let mut tally = Tally::default();
    for (plain, cold, warm, ..) in &pairs {
        tally.add(plain, reference, &pinned, false);
        tally.add(cold, reference, &pinned, false);
        if let Some(warm) = warm {
            tally.add(warm, reference, &pinned, true);
        }
    }
    let plain_s: Vec<f64> = pairs.iter().map(|r| r.0.secs).collect();
    let traced_s: Vec<f64> = pairs.iter().map(|r| r.1.secs).collect();
    let mut per_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (.., layers, _, _) in &pairs {
        for (k, v) in layers {
            per_key.entry(k.as_str()).or_default().push(*v);
        }
    }
    let mut metrics: Vec<(String, f64, &'static str)> = per_key
        .into_iter()
        .map(|(k, v)| (k.to_string(), median(&v), unit_of(k)))
        .collect();
    metrics.push((
        "trace.overhead_frac".into(),
        median(&traced_s) / median(&plain_s) - 1.0,
        "frac",
    ));
    if let Some((.., lines, _)) = pairs.last() {
        for line in lines {
            eprintln!("{line}");
        }
    }
    if let Some(path) = spans_out {
        let tracers: Vec<&Tracer> = pairs.iter().map(|r| &r.5).collect();
        if let Err(e) = trace::write_jsonl(&tracers, path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    Outcome {
        tally,
        digest: work::digest(reference),
        pin,
        reps: pairs.len(),
        metrics,
        traced_digest: Some(work::digest(&pairs[0].1.records)),
    }
}

/// The unit of a per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.contains("shots_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains("_us_") {
        "us"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.contains("_frac") || name.ends_with("_rate") {
        "frac"
    } else if name.ends_with("_per_shot") {
        "ratio"
    } else {
        "count"
    }
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = parse_args(nproc);
    let p = args.params;

    let mut samples = SetupSamples {
        params: p,
        total: Vec::new(),
        build: Vec::new(),
    };
    let (setup, root) = samples.take(SETUP_REPEATS);

    if args.emit_pins {
        let dir = root.child("pins");
        emit_pins(&p, &work::pass(&p, &setup, &dir.0).records);
        return;
    }

    let mut out = if args.trace {
        traced(
            &p,
            &setup,
            &root,
            args.seconds,
            args.spans.as_deref(),
            &mut samples,
        )
    } else {
        untraced(&p, &setup, &root, args.seconds, &mut samples)
    };
    if args.trace {
        out.metrics
            .push(("qec.build_s".into(), median(&samples.build), "s"));
    } else {
        out.metrics
            .push(("setup_s".into(), median(&samples.total), "s"));
        match peak_rss_mb() {
            Some(mb) => out.metrics.push(("peak_rss_mb".into(), mb, "MB")),
            None => {
                eprintln!("perfbench: cannot read peak RSS from /proc/self/status");
                std::process::exit(1);
            }
        }
    }
    drop(root);
    let _ = std::fs::remove_dir(TMP_ROOT);

    println!(
        "perfbench run: workload={} seed={} threads={} nproc={} simd={} cache={} trace={} reps={}{}",
        p.workload.name(),
        p.seed,
        p.threads,
        nproc,
        decoder::simd::Simd::from_env().isa_name(),
        if p.workload.has_cache() { "cold+warm" } else { "none" },
        u8::from(args.trace),
        out.reps,
        if p.quick { " quick" } else { "" },
    );
    println!(
        "perfbench output_digest={:016x} pin={}",
        out.digest, out.pin
    );
    if let Some(d) = out.traced_digest {
        println!("perfbench traced_digest={d:016x}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
}
