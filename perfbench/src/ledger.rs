//! Per-layer metrics of one traced rep, computed from its spans and counters.

use crate::trace::{descends_from, self_times, uncovered, Span};
use crate::work::{Counters, KINDS};
use std::collections::BTreeMap;

/// The roots of one traced rep: its first pass and, for `hetero-cached`, its
/// warm second pass.
pub struct Roots {
    pub cold: usize,
    pub warm: Option<usize>,
}

/// Sweep-layer figures measured outside the spans.
pub struct SweepFigures {
    pub points_computed: usize,
    pub points_cached: usize,
    pub cache_bytes: u64,
    pub workers: usize,
}

/// Durations of the spans named `name`.
fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans.iter().filter(move |s| s.name == name).map(Span::secs)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric except those measured across reps
/// (`qec.build_s`, `trace.overhead_frac`), keyed by name.
pub fn layer_metrics(
    spans: &[Span],
    roots: &Roots,
    labels: &[&str],
    counters: &Counters,
    sweep: &SweepFigures,
) -> BTreeMap<String, f64> {
    let own = self_times(spans);
    let total_self = |name: &str, label: Option<&str>| -> f64 {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && label.is_none_or(|l| s.label == l))
            .map(|(_, t)| t)
            .sum()
    };
    let under = |name: &str, root: usize| -> f64 {
        (0..spans.len())
            .filter(|&i| spans[i].name == name && descends_from(spans, i, root))
            .map(|i| spans[i].secs())
            .sum()
    };

    let mut m = BTreeMap::new();
    let compile_s: f64 = durations(spans, "qccd.compile").sum();
    let sim_s = total_self("qccd.compile", None);
    m.insert("qec.schedule_s".into(), total_self("qec.schedule", None));
    m.insert("qccd.topology_s".into(), total_self("qccd.topology", None));
    m.insert("qccd.sim_s".into(), sim_s);
    m.insert("qccd.compile_s".into(), compile_s);
    for label in labels {
        let secs: f64 = spans
            .iter()
            .filter(|s| s.name == "qccd.compile" && s.label == *label)
            .map(Span::secs)
            .sum();
        m.insert(format!("qccd.compile_frac.{label}"), ratio(secs, compile_s));
    }
    m.insert("qccd.sim_events".into(), counters.sim_events as f64);
    m.insert("qccd.sim_roadblocks".into(), counters.sim_roadblocks as f64);
    m.insert(
        "qccd.host_us_per_sim_event".into(),
        ratio(sim_s * 1e6, counters.sim_events as f64),
    );
    m.insert("noise.channel_s".into(), total_self("noise.channel", None));

    // Decoder busy shares are of the pool's thread-time (workers x pool wall).
    let pool_wall: f64 = durations(spans, "sweep.run").sum();
    let thread_time = pool_wall * sweep.workers as f64;
    m.insert(
        "decoder.build_frac".into(),
        ratio(total_self("decoder.build", None), thread_time),
    );
    for (k, kind) in KINDS.iter().enumerate() {
        let secs = total_self("decoder.sample", Some(kind));
        m.insert(
            format!("decoder.sample_frac.{kind}"),
            ratio(secs, thread_time),
        );
        m.insert(
            format!("decoder.shots_per_s.{kind}"),
            ratio(counters.sampled[k] as f64, secs),
        );
    }
    m.insert(
        "decoder.decode_cache_load_frac".into(),
        ratio(total_self("decoder.decode_cache_load", None), thread_time),
    );
    m.insert(
        "decoder.decode_cache_store_frac".into(),
        ratio(total_self("decoder.decode_cache_store", None), thread_time),
    );
    let lanes: u64 = counters.sampled.iter().sum();
    m.insert(
        "decoder.active_lane_frac".into(),
        ratio(counters.active_lanes as f64, 2.0 * lanes as f64),
    );
    m.insert(
        "decoder.weight1_rate".into(),
        ratio(counters.weight1_hits as f64, counters.active_lanes as f64),
    );
    m.insert(
        "decoder.cache_hit_rate".into(),
        ratio(counters.cache_hits as f64, counters.cache_lookups as f64),
    );
    m.insert(
        "decoder.osd_fallback_rate".into(),
        ratio(counters.osd_fallbacks as f64, counters.decoded as f64),
    );
    m.insert(
        "decoder.decoded_per_shot".into(),
        ratio(counters.decoded as f64, lanes as f64),
    );
    m.insert(
        "decoder.cache_evictions".into(),
        counters.cache_evictions as f64,
    );
    let mut points: Vec<f64> = durations(spans, "decoder.point").collect();
    points.sort_by(f64::total_cmp);
    let p50 = points.get(points.len() / 2).copied().unwrap_or(0.0);
    let max = points.last().copied().unwrap_or(0.0);
    m.insert("decoder.point_p50_frac".into(), ratio(p50, pool_wall));
    m.insert("decoder.point_max_frac".into(), ratio(max, pool_wall));

    let cold = spans[roots.cold].secs();
    m.insert(
        "sweep.spec_frac".into(),
        ratio(under("sweep.spec", roots.cold), cold),
    );
    m.insert(
        "sweep.mc_shots_per_s".into(),
        ratio(counters.shots as f64, pool_wall),
    );
    m.insert(
        "sweep.pool_busy_frac".into(),
        ratio(points.iter().sum(), thread_time),
    );
    m.insert(
        "sweep.cache_load_frac".into(),
        roots.warm.map_or(0.0, |w| {
            ratio(under("sweep.cache_load", w), spans[w].secs())
        }),
    );
    m.insert("sweep.points_computed".into(), sweep.points_computed as f64);
    m.insert("sweep.points_cached".into(), sweep.points_cached as f64);
    m.insert("sweep.cache_bytes".into(), sweep.cache_bytes as f64);

    let pass_roots: Vec<usize> = std::iter::once(roots.cold).chain(roots.warm).collect();
    let gap: f64 = pass_roots.iter().map(|&r| uncovered(spans, r)).sum();
    let wall: f64 = pass_roots.iter().map(|&r| spans[r].secs()).sum();
    m.insert("trace.unattributed_frac".into(), ratio(gap, wall));
    m
}

/// Self seconds per layer span name (label-merged) under each pass root, for
/// the ledger printed on stderr.
pub fn ledger_lines(spans: &[Span], roots: &Roots) -> Vec<String> {
    let own = self_times(spans);
    let mut lines = Vec::new();
    for (pass, root) in [("cold", Some(roots.cold)), ("rerun", roots.warm)] {
        let Some(root) = root else { continue };
        let wall = spans[root].secs();
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if i != root && descends_from(spans, i, root) {
                *by_name.entry(s.name).or_default() += own[i];
            }
        }
        lines.push(format!("ledger {pass} pass: {wall:.4} s"));
        for (name, secs) in by_name {
            lines.push(format!(
                "ledger   {name:<28} self {secs:>10.4} s  ({:>5.1}% of pass wall)",
                100.0 * ratio(secs, wall)
            ));
        }
        lines.push(format!(
            "ledger   {:<28} self {:>10.4} s",
            "(unattributed)",
            uncovered(spans, root)
        ));
    }
    lines
}
