//! Extension **E1**: the paper's §6 future-work proposal — *"the kernel
//! and memory allocation library should be able to allocate a mix of
//! large pages for the bigger allocation and the typical 4KB pages for
//! the smaller allocations"*.
//!
//! Compares all three policies on every application: 4 KB everywhere,
//! 2 MB everywhere, and Mixed (2 MB for allocations ≥ 256 KB, 4 KB below).
//! Mixed should track the 2 MB policy's run time while consuming fewer
//! reserved large pages.
//!
//! The 5-app × 3-policy grid is a [`SweepSpec`] run through
//! [`lpomp_bench::SweepCli`] (`LPOMP_WORKERS` overrides the worker
//! count), so the sweep-store flags work here too.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin ext_mixed
//!         [S|W|A] [--store DIR] [--shard i/n | --merge n] [--jsonl FILE]`

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, sweep_cli_from_args};

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    println!("Extension E1: mixed page policy (class {class}, 4 threads, Opteron)\n");
    let mixed = PagePolicy::Mixed {
        threshold_bytes: 256 * 1024,
    };
    let spec = SweepSpec {
        apps: AppKind::PAPER_FIVE.to_vec(),
        class,
        machines: vec![opteron_2x2()],
        policies: vec![PagePolicy::Small4K, PagePolicy::Large2M, mixed],
        threads: vec![4],
        opts: RunOpts::default(),
        backend: BackendKind::CycleExact,
    };
    let sink = cli.sink();
    let Some(results) = cli
        .execute(&spec.keyed(), sink.as_ref())
        .map(SweepResults::from)
    else {
        return; // shard mode: the slice and its manifest are in the store
    };
    let mut t = TextTable::new(vec![
        "app",
        "4KB (s)",
        "2MB (s)",
        "mixed (s)",
        "mixed vs 2MB",
    ]);
    for app in AppKind::PAPER_FIVE {
        let small = results
            .get(app, "Opteron", PagePolicy::Small4K, 4)
            .expect("grid covers config");
        let large = results
            .get(app, "Opteron", PagePolicy::Large2M, 4)
            .expect("grid covers config");
        let mix = results
            .get(app, "Opteron", mixed, 4)
            .expect("grid covers config");
        t.row(vec![
            app.to_string(),
            fnum(small.seconds, 4),
            fnum(large.seconds, 4),
            fnum(mix.seconds, 4),
            format!("{}%", fnum((mix.seconds / large.seconds - 1.0) * 100.0, 2)),
        ]);
    }
    println!("{}", t.render());
}
