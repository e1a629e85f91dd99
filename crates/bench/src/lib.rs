//! # `lpomp-bench` — experiment regeneration harness
//!
//! One binary per table/figure of the paper:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — TLB sizes and coverage |
//! | `table2` | Table 2 — application memory footprints |
//! | `fig3`   | Fig. 3 — aggregate ITLB miss rates |
//! | `fig4`   | Fig. 4 — scalability, 4 KB vs 2 MB, both platforms |
//! | `fig5`   | Fig. 5 — normalized DTLB misses at 4 threads |
//! | `ablation_prealloc` | A1 — preallocation vs demand faulting |
//! | `ext_mixed` | E1 — the §6 mixed page policy |
//!
//! Wall-clock benches (`cargo bench -p lpomp-bench --features bench`)
//! cover the runtime primitives: barriers, the mailbox, loop schedules,
//! and shared-array access. They use the in-tree `harness` module, so
//! the default build carries no benchmarking dependency.
//!
//! The library half holds the sweep helpers the binaries share. Binaries
//! accept an optional class argument (`S`, `W`, `A`) — default `W`, the
//! simulated-evaluation class.

use lpomp_core::{
    default_workers, workers_from_env, BackendKind, GridCell, JsonlSink, KeyedGrid, RunRecord,
    RunStore, Shard,
};
use lpomp_npb::Class;
use std::path::PathBuf;

#[cfg(feature = "bench")]
pub mod harness;

/// Every binary `reproduce` runs, in order, and whether it takes the
/// class argument. A binary that takes it writes `results/<bin>_<class>.txt`,
/// one that does not writes `results/<bin>.txt`.
pub const REPRODUCE_TARGETS: &[(&str, bool)] = &[
    ("table1", false),
    ("table2", false),
    ("fig3", true),
    ("fig4", true),
    ("fig5", true),
    ("ablation_prealloc", true),
    ("ablation_pwc", true),
    ("ext_mixed", true),
    ("ext_thp", true),
    ("ext_numa", true),
    ("ext_reach", false),
    ("ext_frag", true),
    ("ext_tenant", true),
    ("ext_arch", true),
    ("ext_sched", true),
    ("profile", true),
    ("diag", true),
    ("xval", true),
];

/// Flags that consume the following argument when not written `--flag=value`.
const VALUE_FLAGS: [&str; 5] = ["--backend", "--store", "--shard", "--merge", "--jsonl"];

/// The value of flag `name` when `args[*i]` is that flag, in either
/// spelling: `--flag=value`, or `--flag value` (advancing `i` to the
/// value). A space-form flag with nothing after it is a usage error.
fn flag_value(args: &[String], i: &mut usize, name: &str) -> Option<String> {
    let rest = args[*i].strip_prefix(name)?;
    if let Some(v) = rest.strip_prefix('=') {
        return Some(v.to_owned());
    }
    if !rest.is_empty() {
        return None;
    }
    *i += 1;
    let value = args
        .get(*i)
        .unwrap_or_else(|| usage_error(&format!("{name} needs a value")));
    Some(value.clone())
}

/// The positional (non-flag) CLI arguments, with value-taking flags'
/// space-form values excluded (so `--shard 1/4` does not leave `1/4`
/// looking like a class argument).
pub fn positional_args() -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if VALUE_FLAGS.contains(&a.as_str()) {
            i += 2;
            continue;
        }
        if !a.starts_with("--") {
            out.push(a.clone());
        }
        i += 1;
    }
    out
}

/// Parse the class argument (first non-flag CLI arg), defaulting to `W`.
/// An unknown class, or an `LPOMP_WORKERS` value that is not a positive
/// integer, is a usage error (exit status 2).
pub fn class_from_args() -> Class {
    if let Err(e) = workers_from_env() {
        usage_error(&e);
    }
    let positional = positional_args().into_iter().next();
    match positional.as_deref() {
        Some("S") | Some("s") => Class::S,
        Some("A") | Some("a") => Class::A,
        Some("B") | Some("b") => Class::B,
        Some("W") | Some("w") | None => Class::W,
        Some(other) => usage_error(&format!("unknown class {other:?}; expected S, W, A or B")),
    }
}

/// Parse the `--backend cycle|analytic` flag (either `--backend=NAME` or
/// `--backend NAME`), defaulting to cycle-exact (the golden outputs are
/// cycle-exact; the flag is the fast path). An unknown or missing
/// backend is a usage error (exit status 2).
pub fn backend_from_args() -> BackendKind {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = flag_value(&args, &mut i, "--backend") {
            return BackendKind::parse(&name).unwrap_or_else(|| {
                usage_error(&format!(
                    "unknown backend {name:?}; expected cycle or analytic"
                ))
            });
        }
        i += 1;
    }
    BackendKind::CycleExact
}

/// The sweep-store flags shared by every binary that runs its grid
/// through [`SweepCli::execute`]: the `SweepSpec`-shaped `fig3`, `fig4`,
/// `fig5`, `xval`, `ext_arch` and `ext_mixed`, the builder grids of
/// `ablation_prealloc`, `ablation_pwc`, `diag` and `ext_numa`
/// ([`KeyedGrid::from_builders`]), and the custom-cell `ext_frag` and
/// `ext_sched`:
///
/// * `--store DIR` — run incrementally against the content-addressed
///   [`RunStore`] at `DIR`: cached configs replay from disk, misses run
///   the engine and are persisted (hit/miss counts go to stderr);
/// * `--shard i/n` — run only this process's slice of the grid into the
///   shared store and write a coverage manifest (requires `--store`);
/// * `--merge n` — assemble a previously sharded sweep from the store,
///   validating coverage and key collisions (requires `--store`);
/// * `--jsonl FILE` — stream one JSON record line per configuration as
///   it completes.
///
/// Both `--flag value` and `--flag=value` spellings are accepted.
#[derive(Clone, Debug, Default)]
pub struct SweepCli {
    /// Store directory (`--store`).
    pub store: Option<PathBuf>,
    /// This process's shard (`--shard i/n`).
    pub shard: Option<Shard>,
    /// Merge a sweep previously run as this many shards (`--merge n`).
    pub merge: Option<usize>,
    /// JSON-lines output path (`--jsonl`).
    pub jsonl: Option<PathBuf>,
}

/// Print `msg` and exit with status 1 (a store, shard or merge failure).
fn runtime_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Print `msg` plus the flag summary and exit with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: [S|W|A|B] [--backend cycle|analytic] [--store DIR] [--shard i/n | --merge n] [--jsonl FILE]");
    std::process::exit(2)
}

/// Parse (and cross-validate) the sweep-store flags. Usage errors print
/// a message plus the flag summary and exit with status 2.
pub fn sweep_cli_from_args() -> SweepCli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = SweepCli::default();
    let mut i = 0;
    while i < args.len() {
        let mut value = |name: &str| flag_value(&args, &mut i, name);
        if let Some(dir) = value("--store") {
            cli.store = Some(PathBuf::from(dir));
        } else if let Some(s) = value("--shard") {
            cli.shard = Some(Shard::parse(&s).unwrap_or_else(|| {
                usage_error(&format!("--shard {s:?}: expected i/n with 1 <= i <= n"))
            }));
        } else if let Some(n) = value("--merge") {
            match n.parse::<usize>() {
                Ok(n) if n >= 1 => cli.merge = Some(n),
                _ => usage_error(&format!("--merge {n:?}: expected a shard count >= 1")),
            }
        } else if let Some(path) = value("--jsonl") {
            cli.jsonl = Some(PathBuf::from(path));
        }
        i += 1;
    }
    if cli.shard.is_some() && cli.merge.is_some() {
        usage_error("--shard and --merge are mutually exclusive");
    }
    if (cli.shard.is_some() || cli.merge.is_some()) && cli.store.is_none() {
        usage_error("--shard/--merge need --store DIR (the shards share it)");
    }
    cli
}

impl SweepCli {
    /// Open the `--jsonl` sink, if requested. Call once per process (a
    /// second open would truncate the file) and pass the sink to every
    /// [`execute`](SweepCli::execute).
    pub fn sink(&self) -> Option<JsonlSink> {
        let path = self.jsonl.as_ref()?;
        Some(JsonlSink::create(path).unwrap_or_else(|e| {
            runtime_error(&format!("could not create {}: {e}", path.display()))
        }))
    }

    /// Run `grid` the way the flags ask: merge, shard, incremental, or a
    /// plain in-memory run. Returns `None` in shard mode — the grid slice
    /// and its manifest are on disk, and the caller has no full results
    /// to render — and the cells in key order otherwise. Failures print
    /// an error and exit nonzero (2 for usage, 1 for store/merge errors).
    ///
    /// `SweepSpec`-shaped binaries pass [`SweepSpec::keyed`] and convert
    /// the records with `.map(SweepResults::from)`.
    ///
    /// [`SweepSpec::keyed`]: lpomp_core::SweepSpec::keyed
    pub fn execute<T: GridCell>(
        &self,
        grid: &KeyedGrid<'_, T>,
        sink: Option<&JsonlSink>,
    ) -> Option<Vec<T>> {
        let emit = |cells: &[T], cached: bool| {
            if let Some(sink) = sink {
                for cell in cells {
                    sink.emit_line(&cell.to_store_json(), cached);
                }
            }
        };
        let Some(dir) = &self.store else {
            assert!(
                self.shard.is_none() && self.merge.is_none(),
                "--shard/--merge need --store (validated at parse)"
            );
            let cells = grid.run_all(default_workers());
            emit(&cells, false);
            return Some(cells);
        };
        let store = RunStore::open(dir).unwrap_or_else(|e| {
            runtime_error(&format!("could not open store {}: {e}", dir.display()))
        });
        if let Some(count) = self.merge {
            let cells = grid
                .merge_shards(&store, count)
                .unwrap_or_else(|e| runtime_error(&e));
            emit(&cells, true);
            eprintln!(
                "merged {} cells from {count} shards of grid {}",
                cells.len(),
                grid.sweep_id()
            );
            return Some(cells);
        }
        if let Some(shard) = self.shard {
            let manifest = grid
                .run_shard(shard, &store, default_workers(), sink)
                .unwrap_or_else(|e| runtime_error(&format!("shard {shard} failed: {e}")));
            eprintln!(
                "shard {shard} of grid {} complete ({} cells); after all {} shards, \
                 rerun with `--store {} --merge {}`",
                manifest.sweep,
                manifest.entries.len(),
                shard.count,
                dir.display(),
                shard.count
            );
            return None;
        }
        let (cells, _, _) = grid
            .run_incremental(&store, default_workers(), sink)
            .unwrap_or_else(|e| runtime_error(&format!("incremental grid failed: {e}")));
        Some(cells)
    }
}

/// Percentage improvement of `large` over `small` run time.
pub fn improvement_pct(small: &RunRecord, large: &RunRecord) -> f64 {
    lpomp_prof::report::percent_improvement(small.seconds, large.seconds)
}

/// If `LPOMP_CSV=<dir>` is set, write the table as `<dir>/<name>.csv`
/// (for plotting); errors are reported but never fatal.
pub fn maybe_write_csv(name: &str, table: &lpomp_prof::TextTable) {
    if let Ok(dir) = std::env::var("LPOMP_CSV") {
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}
