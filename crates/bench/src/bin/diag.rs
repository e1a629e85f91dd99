//! Diagnostic: per-app cycle/miss breakdown under both page policies.
//! Not a paper figure — a calibration and debugging aid.
//!
//! The (app × page policy) grid runs through
//! [`KeyedGrid::from_builders`], so the sweep-store flags of
//! [`lpomp_bench::SweepCli`] work here too. An `APP` name outside
//! [`AppKind::ALL`] is a usage error.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin diag [S|W|A|B] [APP]
//!         [--store DIR] [--shard i/n | --merge n] [--jsonl FILE]`

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, positional_args, sweep_cli_from_args, usage_error};

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    let apps: Vec<AppKind> = match positional_args().get(1) {
        None => AppKind::ALL.to_vec(),
        Some(f) => match AppKind::ALL
            .into_iter()
            .find(|app| app.name().eq_ignore_ascii_case(f))
        {
            Some(app) => vec![app],
            None => usage_error(&format!(
                "unknown app {f:?}; expected one of {:?}",
                AppKind::ALL.map(AppKind::name)
            )),
        },
    };
    let cells = apps
        .iter()
        .flat_map(|&app| {
            [PagePolicy::Small4K, PagePolicy::Large2M].map(|policy| {
                (
                    app,
                    System::builder(opteron_2x2()).policy(policy).threads(4),
                )
            })
        })
        .collect();
    let grid = KeyedGrid::from_builders(cells, class, RunOpts::default(), BackendKind::CycleExact);
    let sink = cli.sink();
    let Some(records) = cli.execute(&grid, sink.as_ref()) else {
        return; // shard mode: the slice and its manifest are in the store
    };
    let mut t = TextTable::new(vec![
        "app",
        "pages",
        "seconds",
        "Gcycles",
        "loads",
        "stores",
        "dtlb_miss",
        "miss%",
        "walk_cyc%",
        "l2_miss",
        "itlb_miss",
        "faults",
    ]);
    for r in &records {
        let c = &r.counters;
        let accesses = c.get(Event::Loads) + c.get(Event::Stores);
        let cycles = c.get(Event::Cycles);
        t.row(vec![
            r.app.to_string(),
            r.policy.to_string(),
            fnum(r.seconds, 4),
            fnum(cycles as f64 / 1e9, 3),
            format!("{:.1}M", c.get(Event::Loads) as f64 / 1e6),
            format!("{:.1}M", c.get(Event::Stores) as f64 / 1e6),
            format!("{}", c.get(Event::DtlbMisses)),
            fnum(
                100.0 * c.get(Event::DtlbMisses) as f64 / accesses.max(1) as f64,
                2,
            ),
            fnum(
                100.0 * c.get(Event::WalkCycles) as f64 / cycles.max(1) as f64,
                2,
            ),
            format!("{}", c.get(Event::L2Misses)),
            format!("{}", c.get(Event::ItlbMisses)),
            format!("{}", c.get(Event::PageFaults)),
        ]);
    }
    println!("{}", t.render());
}
