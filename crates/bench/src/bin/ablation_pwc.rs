//! Ablation **A5**: the page-walk cache.
//!
//! Both evaluation platforms cache the upper levels of the page-table
//! radix tree inside the walker, so a TLB miss usually costs one PTE
//! reference, not four. This ablation disables that assumption and
//! re-measures the paper's headline comparison: without walk caches, 4 KB
//! pages get even slower (walks dominate), so the large-page win grows —
//! i.e. the reproduction's calibrated walk costs are, if anything,
//! conservative about the paper's effect.
//!
//! The PWC toggle is a machine-config edit that keeps the platform's
//! name, so the runs are a builder grid ([`KeyedGrid::from_builders`];
//! `LPOMP_WORKERS` overrides the worker count) whose keys carry the
//! toggle, and the sweep-store flags of [`lpomp_bench::SweepCli`] work
//! here too.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin ablation_pwc
//!         [S|W|A] [--store DIR] [--shard i/n | --merge n] [--jsonl FILE]`

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, sweep_cli_from_args};

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    println!("Ablation A5: page-walk cache (class {class}, 4 threads, Opteron)\n");
    let mut t = TextTable::new(vec!["app", "PWC", "4KB (s)", "2MB (s)", "2MB gain"]);
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for app in [AppKind::Cg, AppKind::Sp] {
        for pwc in [true, false] {
            rows.push((app, pwc));
            let mut machine = opteron_2x2();
            machine.page_walk_cache = pwc;
            for policy in [PagePolicy::Small4K, PagePolicy::Large2M] {
                let b = System::builder(machine.clone()).policy(policy).threads(4);
                cells.push((app, b));
            }
        }
    }
    let grid = KeyedGrid::from_builders(cells, class, RunOpts::default(), BackendKind::CycleExact);
    let sink = cli.sink();
    let Some(records) = cli.execute(&grid, sink.as_ref()) else {
        return; // shard mode: the slice and its manifest are in the store
    };
    for (chunk, &(app, pwc)) in records.chunks(2).zip(&rows) {
        let (small, large) = (&chunk[0], &chunk[1]);
        t.row(vec![
            app.to_string(),
            if pwc { "on" } else { "off" }.to_owned(),
            fnum(small.seconds, 4),
            fnum(large.seconds, 4),
            format!(
                "{}%",
                fnum((1.0 - large.seconds / small.seconds) * 100.0, 1)
            ),
        ]);
    }
    println!("{}", t.render());
}
