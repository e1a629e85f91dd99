//! Ablation **A1**: startup preallocation vs demand faulting of the
//! large-page shared heap — the §3.3 design decision.
//!
//! The paper argues that because an OpenMP job owns its node, the runtime
//! should prefault the entire shared region at startup: the faults move
//! out of the timed region and the allocator stays trivial. This ablation
//! quantifies it: with `OnDemand`, every first touch during the run pays
//! a page-fault (and the walk behind it); with `Prefault` the run itself
//! takes zero faults.
//!
//! The populate policy is a [`SystemBuilder`] axis outside `SweepSpec`,
//! so the eight runs are a builder grid ([`KeyedGrid::from_builders`];
//! `LPOMP_WORKERS` overrides the worker count) and the sweep-store flags
//! of [`lpomp_bench::SweepCli`] work here too.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin ablation_prealloc
//!         [S|W|A] [--store DIR] [--shard i/n | --merge n] [--jsonl FILE]`

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, sweep_cli_from_args};

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    println!("Ablation A1: preallocation vs demand faulting (class {class}, CG + MG, 4 threads, Opteron)\n");
    let mut t = TextTable::new(vec![
        "app",
        "pages",
        "populate",
        "run time (s)",
        "faults in run",
        "fault cycles",
        "slowdown",
    ]);
    let mut cells = Vec::new();
    for app in [AppKind::Cg, AppKind::Mg] {
        for policy in [PagePolicy::Small4K, PagePolicy::Large2M] {
            for populate in [PopulatePolicy::Prefault, PopulatePolicy::OnDemand] {
                let b = System::builder(opteron_2x2())
                    .policy(policy)
                    .threads(4)
                    .populate(populate);
                cells.push((app, b));
            }
        }
    }
    let grid = KeyedGrid::from_builders(cells, class, RunOpts::default(), BackendKind::CycleExact);
    let sink = cli.sink();
    let Some(records) = cli.execute(&grid, sink.as_ref()) else {
        return; // shard mode: the slice and its manifest are in the store
    };
    for pair in records.chunks(2) {
        let pre = &pair[0];
        for (label, r) in [("prefault", pre), ("on-demand", &pair[1])] {
            t.row(vec![
                r.app.to_string(),
                r.policy.to_string(),
                label.to_owned(),
                fnum(r.seconds, 4),
                r.counters.get(Event::PageFaults).to_string(),
                r.counters
                    .get(Event::PageFaults)
                    .saturating_mul(2500)
                    .to_string(),
                format!("{}%", fnum((r.seconds / pre.seconds - 1.0) * 100.0, 2)),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "(The paper's choice: preallocate at startup — the faults leave the\n\
         timed region entirely, and a batch HPC node has the memory to spare.\n\
         Note how 2MB pages need 512x fewer faults even on demand: large\n\
         pages also amortize fault overhead, a secondary benefit.)"
    );
}
