//! Host-time benchmark of the lpomp simulator.
//!
//! The benchmark times the simulator from outside, through the public
//! functions of its crates. One run executes passes of one workload (see
//! [`workload`]) until `--seconds` is spent, and reports medians over the
//! passes. With `--trace 1` every other pass is traced (see [`span`]) and
//! the seeded per-layer drills ([`drills`]) run afterwards; the run then
//! reports the per-layer metrics instead of the end-to-end ones.

pub mod drills;
pub mod span;
pub mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use lpomp_prof::{Counters, Event};

use span::{self_times, Tracer};
use workload::{run_pass, setup_round, PassResult, Plan, Scale, Workload};

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("host_ns_per_access", "ns"),
    ("capture_s", "s"),
    ("capture_over_cycle", "ratio"),
    ("xval_time_err_pct", "%"),
    ("xval_dtlb_err_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Span metrics of the traced run: `(metric, span name, unit)`. A `_s`
/// metric is the span's total seconds per pass, except `prof.capture_s`,
/// which is seconds per captured key; a `_us` metric is microseconds per
/// call.
const SPAN_METRICS: [(&str, &str, &str); 9] = [
    ("npb.build_s", "npb.build", "s"),
    ("core.system_build_s", "core.system_build", "s"),
    ("vm.age_heap_s", "vm.age_heap", "s"),
    ("runtime.run_s", "runtime.run", "s"),
    ("npb.verify_s", "npb.verify", "s"),
    ("prof.capture_s", "prof.capture", "s"),
    ("machine.evaluate_us", "machine.evaluate", "us"),
    ("core.store_save_us", "core.store_save", "us"),
    ("core.store_load_us", "core.store_load", "us"),
];

/// Layers that own spans; each gets a `<layer>.self_s` metric.
const LAYERS: [&str; 7] = ["bench", "npb", "core", "vm", "runtime", "prof", "machine"];

/// Exact counts summed over one pass's cycle-engine cells.
const COUNT_METRICS: [(&str, Event); 13] = [
    ("tlb.dtlb_misses", Event::DtlbMisses),
    ("tlb.dtlb_l2_hits", Event::DtlbL2Hits),
    ("vm.walk_cycles", Event::WalkCycles),
    ("vm.page_faults", Event::PageFaults),
    ("vm.pages_migrated", Event::PagesMigrated),
    ("vm.pages_collapsed", Event::PagesCollapsed),
    ("vm.pages_compacted", Event::PagesCompacted),
    ("machine.l2_misses", Event::L2Misses),
    ("machine.smt_flushes", Event::SmtFlushes),
    ("machine.dram_remote", Event::RemoteDramAccesses),
    ("runtime.barriers", Event::Barriers),
    ("runtime.steals_local", Event::LocalSteals),
    ("runtime.steals_remote", Event::RemoteSteals),
];

/// Drill metrics, in the order [`drills::run`] returns them.
const DRILL_METRICS: [&str; 17] = [
    "tlb.lookup_hit_ns",
    "tlb.lookup_miss_ns",
    "vm.walk_ns.4k",
    "vm.walk_ns.2m",
    "vm.walk_ns.1g",
    "machine.cache_access_ns.seq",
    "machine.cache_access_ns.gather",
    "machine.data_access_ns.seq.4k",
    "machine.data_access_ns.page_stride.4k",
    "machine.data_access_ns.gather.4k",
    "machine.data_access_ns.seq.2m",
    "machine.data_access_ns.page_stride.2m",
    "machine.data_access_ns.gather.2m",
    "prof.recorder_data_ns.seq",
    "prof.recorder_data_ns.page_stride",
    "prof.recorder_data_ns.gather",
    "prof.reuse_access_ns",
];

/// Every per-layer metric, `(name, unit)`, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for (name, _, unit) in SPAN_METRICS {
        out.push((name.into(), unit));
    }
    for layer in LAYERS {
        out.push((format!("{layer}.self_s"), "s"));
    }
    for name in ["trace.wall_s", "trace.untraced_wall_s"] {
        out.push((name.into(), "s"));
    }
    out.push(("trace.overhead_pct".into(), "%"));
    for name in DRILL_METRICS {
        out.push((name.into(), "ns"));
    }
    out.push(("machine.sim_accesses".into(), "count"));
    for (name, _) in COUNT_METRICS {
        out.push((name.into(), "count"));
    }
    out.push(("tlb.dtlb_hit_ratio".into(), "ratio"));
    out.push(("core.store_hit_ratio".into(), "ratio"));
    out
}

/// SplitMix64: the benchmark's seeded generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the cell order and the drill streams.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// Usage line.
pub const USAGE: &str =
    "usage: lpomp-perfbench --workload <fig4_4k|fig4_2m|daemons|analytic> --seed <n> --seconds <n> --trace <0|1>";

/// Parse `--workload W --seed N --seconds N --trace 0|1`; all four are
/// required.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => &flag[2..],
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if map.insert(key, value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |k: &str| map.get(k).copied().ok_or(format!("--{k} is required"));
    let workload = get("workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = get("seed")?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad --seed `{seed}`"))?;
    let secs = get("seconds")?;
    let seconds: f64 = secs
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .ok_or(format!("bad --seconds `{secs}`"))?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad --trace `{t}` (0 or 1)")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Cells attempted.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// `(name, value, unit)`, end-to-end or per-layer.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Wall seconds of each pass, in run order.
    pub pass_wall_s: Vec<f64>,
    /// Host CPUs.
    pub host_cpus: usize,
    /// Seconds of the fixed calibration loop.
    pub calibration_s: f64,
    /// Hash over every simulated cell's cycles and counters.
    pub sim_digest: String,
    /// Cycle-engine cell order of each pass.
    pub orders: Vec<Vec<String>>,
    /// The first pass's simulated results.
    pub sims: BTreeMap<String, (u64, Counters)>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<span::Span>,
}

impl Report {
    /// Failed cells, capped at the number attempted.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// The last line of output: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }

    /// Ungated context of the run, as one JSON object.
    pub fn info_json(&self, args: &Args) -> String {
        let walls: Vec<String> = self.pass_wall_s.iter().map(f64::to_string).collect();
        format!(
            "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
             \"pass_wall_s\": [{}], \"host_cpus\": {}, \"calibration_s\": {}, \"sim_digest\": \"{}\"}}}}",
            args.workload.name(),
            args.seed,
            args.trace,
            walls.join(", "),
            self.host_cpus,
            self.calibration_s,
            self.sim_digest
        )
    }
}

/// Median of a non-empty sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One pass of a run: its result, its spans' index range, and whether it
/// was traced.
struct Pass {
    res: PassResult,
    spans: Range<usize>,
    traced: bool,
}

/// Set-up rounds `setup_s` takes its median over, counting each pass.
const SETUP_ROUNDS: usize = 9;

/// Iterations of the calibration loop.
const CALIBRATION_ITERS: u64 = 20_000_000;

/// Seconds for a fixed xorshift loop, median of three: a host-speed
/// yardstick reported beside every result.
pub fn calibration_s() -> f64 {
    let v: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..CALIBRATION_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = black_box(x);
            }
            black_box(x);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

/// FNV-1a over every cell's id, cycles and counters.
pub fn sim_digest(sims: &BTreeMap<String, (u64, Counters)>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (id, (cycles, counters)) in sims {
        eat(id.as_bytes());
        eat(&cycles.to_le_bytes());
        for e in Event::ALL {
            eat(&counters.get(e).to_le_bytes());
        }
    }
    format!("{h:016x}")
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run one benchmark run. `work_dir` receives the temporary stores.
pub fn run(args: &Args, scale: Scale, work_dir: &Path) -> Report {
    let plan = Plan::new(args.workload, scale);
    let calibration_s = calibration_s();
    let store_dir = work_dir.join(format!("store-{}", std::process::id()));
    let t0 = Instant::now();

    let mut setups = Vec::new();
    if !args.trace {
        // Set-up rounds beyond the passes' own, so `setup_s` is a median
        // even when only one pass fits.
        for _ in 1..SETUP_ROUNDS {
            setups.push(setup_round(&plan, &store_dir));
        }
    }

    // Passes until the next one would overrun `seconds`. A traced run
    // alternates untraced and traced passes and runs at least one of each.
    let mut tr = Tracer::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = None;
    loop {
        let p = passes.len() as u64;
        let traced = args.trace && p % 2 == 1;
        tr.set_on(traced);
        let first = tr.spans().len();
        let mut rng = SplitMix64::new(args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ p);
        let res = run_pass(&plan, &mut rng, &store_dir, &mut tr);
        let last = res.wall_s;
        if passes.is_empty() {
            // Set-up rounds plus one pass: the same allocations whatever
            // the number of passes that follow.
            peak_rss = peak_rss_mb();
        }
        passes.push(Pass {
            res,
            spans: first..tr.spans().len(),
            traced,
        });
        tr.set_on(false);
        let need_more = args.trace && passes.len() < 2;
        if !need_more && t0.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    let first = &passes[0].res;
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    for (i, res) in passes.iter().map(|p| &p.res).enumerate() {
        attempted += res.attempted;
        failures.extend(res.failures.iter().cloned());
        for (id, sim) in &res.sims {
            if first.sims.get(id) != Some(sim) {
                failures.push(format!("{id}: pass {i} differs from pass 0"));
            }
        }
    }

    let all: Vec<&PassResult> = passes.iter().map(|p| &p.res).collect();
    let med = |f: fn(&PassResult) -> f64| median(&all.iter().map(|p| f(p)).collect::<Vec<_>>());
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if !args.trace {
        setups.extend(all.iter().map(|p| p.setup_s));
        let rss = peak_rss.unwrap_or_else(|| {
            failures.push("peak RSS unavailable: /proc/self/status has no VmHWM".into());
            0.0
        });
        let values = [
            med(|p| p.wall_s),
            median(&setups),
            med(|p| p.run_s * 1e9 / p.accesses.max(1) as f64),
            med(|p| p.capture_s),
            med(|p| (p.capture_s + p.evaluate_s) / p.xval_cycle_s),
            all.iter().map(|p| p.xval_time_err_pct).fold(0.0, f64::max),
            all.iter().map(|p| p.xval_dtlb_err_pct).fold(0.0, f64::max),
            rss,
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            metrics.push((name.into(), v, unit));
        }
    } else {
        metrics = per_layer_metrics(&passes, tr.spans(), &plan, args.seed);
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            failures.push(format!("metric {name} is not finite"));
        }
    }
    let metrics = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { -1.0 }, u))
        .collect();

    Report {
        attempted,
        failures,
        metrics,
        pass_wall_s: all.iter().map(|p| p.wall_s).collect(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        calibration_s,
        sim_digest: sim_digest(&first.sims),
        orders: all.iter().map(|p| p.order.clone()).collect(),
        sims: first.sims.clone(),
        spans: tr.spans().to_vec(),
    }
}

/// The traced run's metrics: spans, self times, tracing overhead,
/// drills and exact counts.
fn per_layer_metrics(
    passes: &[Pass],
    spans: &[span::Span],
    plan: &Plan,
    seed: u64,
) -> Vec<(String, f64, &'static str)> {
    let selfs = self_times(spans);
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.res.wall_s)
        .collect();
    let durs = |name: &str, range: &Range<usize>| -> Vec<f64> {
        spans[range.clone()]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur())
            .collect()
    };
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    for (metric, name, unit) in SPAN_METRICS {
        let v = if unit == "us" || metric == "prof.capture_s" {
            let all: Vec<f64> = traced.iter().flat_map(|p| durs(name, &p.spans)).collect();
            median(&all) * if unit == "us" { 1e6 } else { 1.0 }
        } else {
            let per_pass: Vec<f64> = traced
                .iter()
                .map(|p| durs(name, &p.spans).iter().sum())
                .collect();
            median(&per_pass)
        };
        out.push((metric.into(), v, unit));
    }
    for layer in LAYERS {
        let per_pass: Vec<f64> = traced
            .iter()
            .map(|p| {
                spans[p.spans.clone()]
                    .iter()
                    .zip(&selfs[p.spans.clone()])
                    .filter(|(s, _)| s.layer() == layer)
                    .map(|(_, t)| t)
                    .sum()
            })
            .collect();
        out.push((format!("{layer}.self_s"), median(&per_pass), "s"));
    }
    let traced_wall = median(&traced.iter().map(|p| p.res.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(&untraced);
    out.push(("trace.wall_s".into(), traced_wall, "s"));
    out.push(("trace.untraced_wall_s".into(), untraced_wall, "s"));
    out.push((
        "trace.overhead_pct".into(),
        (traced_wall / untraced_wall - 1.0) * 100.0,
        "%",
    ));
    for (name, ns) in drills::run(plan, seed) {
        out.push((name.into(), ns, "ns"));
    }
    let p0 = &passes[0].res;
    let c = &p0.counts;
    let accesses = c.get(Event::Loads) + c.get(Event::Stores) + c.get(Event::IFetches);
    out.push(("machine.sim_accesses".into(), accesses as f64, "count"));
    for (name, e) in COUNT_METRICS {
        out.push((name.into(), c.get(e) as f64, "count"));
    }
    let (hits, misses) = (c.get(Event::DtlbHits), c.get(Event::DtlbMisses));
    out.push((
        "tlb.dtlb_hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
    out.push((
        "core.store_hit_ratio".into(),
        p0.store_hits as f64 / p0.store_records.max(1) as f64,
        "ratio",
    ));
    out
}
