//! The four workloads: which cells each runs, and how one pass runs them.
//!
//! A *cell* is one simulated run on the cycle engine. Every workload
//! also ends with its analytic cross-check: the class-S versions of its
//! cells are captured, evaluated by the closed-form model and run on the
//! cycle engine as the reference. On `analytic` that cross-check is the
//! whole workload (the 70-cell Figure-4 grid) and is followed by a store
//! save and warm replay; on the other workloads it is a small tail that
//! gives `capture_s`, `capture_over_cycle` and the `xval_*` errors a
//! value there too.
//!
//! Captures call [`capture_profile`] and [`evaluate`] directly, never the
//! process-wide profile cache, so every pass captures cold. All cells run
//! one after another on the calling thread.

use std::collections::BTreeMap;
use std::path::Path;

use lpomp_core::{
    capture_profile, xval_dtlb_err_pct, xval_seconds_err_pct, BackendKind, PagePolicy,
    PopulatePolicy, RunOpts, RunRecord, RunStore, StoreKey, System, SystemBuilder,
    XVAL_DTLB_BAND_PCT, XVAL_SECONDS_BAND_PCT,
};
use lpomp_machine::{
    evaluate, opteron_2x2, xeon_2x2_ht, AnalyticPoint, MachineConfig, NumaConfig, NumaPlacement,
};
use lpomp_npb::{AppKind, Class, Kernel, Skew};
use lpomp_prof::{Counters, Event};
use lpomp_runtime::Schedule;
use lpomp_vm::{age_heap, NumaDaemonConfig};

use crate::span::Tracer;
use crate::SplitMix64;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure-4 cells at class W, 4 KB pages: translation-heavy.
    Fig4_4k,
    /// The same cells with 2 MB pages: TLB-hit, cache and clock path.
    Fig4_2m,
    /// The VM write path, barrier-time daemons and the stealing scheduler.
    Daemons,
    /// The class-S Figure-4 grid on the analytic backend, cold capture.
    Analytic,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig4_4k,
        Workload::Fig4_2m,
        Workload::Daemons,
        Workload::Analytic,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4_4k => "fig4_4k",
            Workload::Fig4_2m => "fig4_2m",
            Workload::Daemons => "daemons",
            Workload::Analytic => "analytic",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem size. The benchmark always measures `Full`; the benchmark's
/// own tests use `Small`, which runs every cell at class S and cuts the
/// `analytic` grid to CG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Class S everywhere, for tests.
    Small,
}

/// Chunk size of the hierarchical stealer on SKEW (as in `ext_sched`).
const SKEW_CHUNK: usize = 256;

/// Heap-aging severity of the khugepaged cell: every free 2 MB block.
const AGE_SEVERITY: f64 = 1.0;

/// One cycle-engine run.
#[derive(Clone, Debug)]
pub enum Cell {
    /// A Figure-4 cell: static schedule, prefaulted heap.
    Fig4 {
        /// Platform.
        machine: Box<MachineConfig>,
        /// Application.
        app: AppKind,
        /// Problem class.
        class: Class,
        /// Page policy.
        policy: PagePolicy,
        /// Thread count.
        threads: usize,
    },
    /// SKEW on the first-touch Opteron with demand faulting, the NUMA
    /// daemon and the hierarchical stealer, 4 threads.
    Skew {
        /// Problem class.
        class: Class,
        /// Page policy.
        policy: PagePolicy,
    },
    /// CG with khugepaged on a fully aged heap, Opteron, 4 threads.
    AgedThp {
        /// Problem class.
        class: Class,
    },
}

impl Cell {
    fn fig4(
        machine: &MachineConfig,
        app: AppKind,
        class: Class,
        policy: PagePolicy,
        t: usize,
    ) -> Cell {
        Cell::Fig4 {
            machine: Box::new(machine.clone()),
            app,
            class,
            policy,
            threads: t,
        }
    }

    /// Stable identifier, e.g. `Opteron CG W 4KB 4t`.
    pub fn id(&self) -> String {
        match self {
            Cell::Fig4 {
                machine,
                app,
                class,
                policy,
                threads,
            } => format!(
                "{} {app} {class} {} {threads}t",
                machine.name,
                policy.label()
            ),
            Cell::Skew { class, policy } => {
                format!(
                    "Opteron SKEW {class} {} 4t numa-daemon hier",
                    policy.label()
                )
            }
            Cell::AgedThp { class } => format!("Opteron CG {class} thp 4t khugepaged aged"),
        }
    }

    /// Build the kernel (`AppKind::build` / `Skew::new`).
    pub fn kernel(&self) -> Box<dyn Kernel> {
        match self {
            Cell::Fig4 { app, class, .. } => app.build(*class),
            Cell::Skew { class, .. } => Box::new(Skew::new(*class)),
            Cell::AgedThp { class } => AppKind::Cg.build(*class),
        }
    }

    /// The system this cell runs on.
    pub fn builder(&self) -> SystemBuilder {
        match self {
            Cell::Fig4 {
                machine,
                policy,
                threads,
                ..
            } => SystemBuilder::new((**machine).clone())
                .policy(*policy)
                .threads(*threads),
            Cell::Skew { policy, .. } => {
                let mut m = opteron_2x2();
                m.numa = Some(NumaConfig::opteron(NumaPlacement::FirstTouch));
                SystemBuilder::new(m)
                    .policy(*policy)
                    .threads(4)
                    .populate(PopulatePolicy::OnDemand)
                    .numa_daemon(NumaDaemonConfig::default())
                    .schedule(Schedule::Hierarchical { chunk: SKEW_CHUNK })
            }
            Cell::AgedThp { .. } => SystemBuilder::new(opteron_2x2())
                .threads(4)
                .thp_daemon(true),
        }
    }
}

/// What one workload runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Main cycle-engine cells.
    pub cells: Vec<Cell>,
    /// `(app, threads)` profiles the cross-check captures, at class S.
    pub xval_keys: Vec<(AppKind, usize)>,
    /// Cross-check cells: evaluated analytically and run on the cycle
    /// engine. Always `Cell::Fig4` at class S.
    pub xval_cells: Vec<Cell>,
    /// Whether the cross-check's cycle records go through a fresh
    /// `RunStore` and a warm replay.
    pub store: bool,
}

impl Plan {
    /// The cells of `workload` at `scale`.
    pub fn new(workload: Workload, scale: Scale) -> Plan {
        let w = match scale {
            Scale::Full => Class::W,
            Scale::Small => Class::S,
        };
        let (opteron, xeon) = (opteron_2x2(), xeon_2x2_ht());
        let fig4 = |class: Class, policy: PagePolicy| -> Vec<Cell> {
            let mut cells = Vec::new();
            for (m, t) in [(&opteron, 4), (&xeon, 8)] {
                for app in [AppKind::Cg, AppKind::Mg, AppKind::Sp] {
                    cells.push(Cell::fig4(m, app, class, policy, t));
                }
            }
            cells
        };
        let (cells, xval_cells, store) = match workload {
            Workload::Fig4_4k => (
                fig4(w, PagePolicy::Small4K),
                fig4(Class::S, PagePolicy::Small4K),
                false,
            ),
            Workload::Fig4_2m => (
                fig4(w, PagePolicy::Large2M),
                fig4(Class::S, PagePolicy::Large2M),
                false,
            ),
            Workload::Daemons => (
                vec![
                    Cell::Skew {
                        class: w,
                        policy: PagePolicy::Small4K,
                    },
                    Cell::Skew {
                        class: w,
                        policy: PagePolicy::Large2M,
                    },
                    Cell::AgedThp { class: w },
                ],
                // CG's Figure-4 cells: the daemon cells' application on
                // the paper's static schedule, which the model covers.
                [(&opteron, 4), (&xeon, 8)]
                    .into_iter()
                    .flat_map(|(m, t)| {
                        [PagePolicy::Small4K, PagePolicy::Large2M]
                            .map(|p| Cell::fig4(m, AppKind::Cg, Class::S, p, t))
                    })
                    .collect(),
                false,
            ),
            Workload::Analytic => {
                let apps: &[AppKind] = match scale {
                    Scale::Full => &AppKind::PAPER_FIVE,
                    Scale::Small => &[AppKind::Cg],
                };
                // The Figure-4 grid in `SweepSpec::figure4` order:
                // machines → apps → policies → threads.
                let mut grid = Vec::new();
                for m in [&opteron, &xeon] {
                    for &app in apps {
                        for policy in [PagePolicy::Small4K, PagePolicy::Large2M] {
                            for t in lpomp_core::figure4_thread_counts(m) {
                                grid.push(Cell::fig4(m, app, Class::S, policy, t));
                            }
                        }
                    }
                }
                (Vec::new(), grid, true)
            }
        };
        let mut xval_keys: Vec<(AppKind, usize)> = Vec::new();
        for c in &xval_cells {
            if let Cell::Fig4 { app, threads, .. } = c {
                if !xval_keys.contains(&(*app, *threads)) {
                    xval_keys.push((*app, *threads));
                }
            }
        }
        Plan {
            cells,
            xval_keys,
            xval_cells,
            store,
        }
    }

    /// The cell the drills model: the largest data footprint among the
    /// main cells (the cross-check cells on `analytic`).
    pub fn drill_cell(&self) -> &Cell {
        let cells = if self.cells.is_empty() {
            &self.xval_cells
        } else {
            &self.cells
        };
        cells
            .iter()
            .max_by_key(|c| c.kernel().footprint().data_bytes)
            .expect("every workload has cells")
    }
}

/// The outcome of one cycle-engine cell.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// [`Cell::id`].
    pub id: String,
    /// Critical-path cycles.
    pub cycles: u64,
    /// Aggregate counters.
    pub counters: Counters,
    /// Set-up seconds: kernel build, system build, heap aging.
    pub setup_s: f64,
    /// Seconds inside `Kernel::run`.
    pub run_s: f64,
    /// The record `run_system` would have produced (Figure-4 cells).
    pub record: Option<RunRecord>,
    /// Failed checks, empty when the cell is correct.
    pub failures: Vec<String>,
}

/// The set-up calls of one cell: build the kernel and its system, and
/// age the heap of the khugepaged cell. Returns the kernel, the system
/// (or why it could not be set up) and the seconds the calls took.
fn set_up(cell: &Cell, tr: &mut Tracer) -> (Box<dyn Kernel>, Result<System, String>, f64) {
    let (mut kernel, build_s) = tr.time("npb.build", |_| cell.kernel());
    let builder = cell.builder();
    let (sys, sys_s) = tr.time("core.system_build", |_| builder.build(kernel.as_mut()));
    let mut secs = build_s + sys_s;
    let mut sys = match sys {
        Ok(sys) => sys,
        Err(e) => return (kernel, Err(format!("system build failed: {e}")), secs),
    };
    if let Cell::AgedThp { .. } = cell {
        let engine = sys.team.engine_mut().expect("a built system is simulated");
        let (aged, age_s) = tr.time("vm.age_heap", |_| {
            age_heap(&mut engine.machine.frames, &mut engine.aspace, AGE_SEVERITY)
        });
        secs += age_s;
        if let Err(e) = aged {
            return (kernel, Err(format!("age_heap failed: {e}")), secs);
        }
    }
    (kernel, Ok(sys), secs)
}

/// Run one cell, timing each public call.
pub fn run_cell(cell: &Cell, tr: &mut Tracer) -> CellRun {
    tr.time("bench.cell", |tr| {
        let (mut kernel, sys, setup_s) = set_up(cell, tr);
        let mut run = CellRun {
            id: cell.id(),
            cycles: 0,
            counters: Counters::new(),
            setup_s,
            run_s: 0.0,
            record: None,
            failures: Vec::new(),
        };
        let mut sys = match sys {
            Ok(sys) => sys,
            Err(e) => {
                run.failures.push(e);
                return run;
            }
        };
        let (checksum, run_s) = tr.time("runtime.run", |_| kernel.run(&mut sys.team));
        run.run_s = run_s;
        let (verified, _) = tr.time("npb.verify", |_| kernel.verify(checksum));
        run.cycles = sys.team.elapsed_cycles();
        run.counters = sys.team.aggregate_counters();
        if !verified {
            run.failures.push("Kernel::verify failed".into());
        }
        run.failures.extend(counter_checks(&run.counters));
        if let Cell::Fig4 {
            machine,
            app,
            class,
            policy,
            threads,
        } = cell
        {
            let seconds = sys
                .team
                .engine()
                .expect("a built system is simulated")
                .machine
                .cost()
                .seconds(run.cycles);
            run.record = Some(RunRecord {
                app: *app,
                class: *class,
                machine: machine.name,
                policy: *policy,
                threads: *threads,
                seconds,
                cycles: run.cycles,
                counters: run.counters.clone(),
                checksum,
                verified: None,
                regions: sys.team.region_sheet(),
                trace: sys.team.trace_json(),
                backend: BackendKind::CycleExact.label(),
            });
        }
        run
    })
    .0
}

/// Counter conservation: every data access is one DTLB hit or miss, and
/// an L2 miss is first an L1D miss.
pub fn counter_checks(c: &Counters) -> Vec<String> {
    let mut out = Vec::new();
    let accesses = c.get(Event::Loads) + c.get(Event::Stores);
    let lookups = c.get(Event::DtlbHits) + c.get(Event::DtlbMisses);
    if accesses != lookups {
        out.push(format!(
            "Loads + Stores = {accesses} but DtlbHits + DtlbMisses = {lookups}"
        ));
    }
    if c.get(Event::L1dMisses) < c.get(Event::L2Misses) {
        out.push(format!(
            "L1dMisses = {} < L2Misses = {}",
            c.get(Event::L1dMisses),
            c.get(Event::L2Misses)
        ));
    }
    out
}

/// Set-up seconds of every set-up call one pass makes, made again and
/// thrown away: kernel and system builds, heap aging and opening a store.
pub fn setup_round(plan: &Plan, store_dir: &Path) -> f64 {
    let mut tr = Tracer::new();
    let mut total = 0.0;
    for cell in plan.cells.iter().chain(&plan.xval_cells) {
        total += set_up(cell, &mut tr).2;
    }
    if plan.store {
        let (_, open_s) = tr.time("core.store_open", |_| RunStore::open(store_dir));
        total += open_s;
        let _ = std::fs::remove_dir_all(store_dir);
    }
    total
}

/// Everything one pass measured.
#[derive(Clone, Debug, Default)]
pub struct PassResult {
    /// Seconds for the whole pass.
    pub wall_s: f64,
    /// Seconds in set-up calls.
    pub setup_s: f64,
    /// Seconds inside `Kernel::run`, over every cycle-engine cell.
    pub run_s: f64,
    /// Simulated accesses (Loads + Stores + IFetches) of those cells.
    pub accesses: u64,
    /// Seconds in `capture_profile`.
    pub capture_s: f64,
    /// Seconds in `evaluate`.
    pub evaluate_s: f64,
    /// Cycle-engine seconds (set-up + run) of the cross-check cells.
    pub xval_cycle_s: f64,
    /// Worst cross-check run-time error, percent.
    pub xval_time_err_pct: f64,
    /// Worst cross-check DTLB-miss error, percent.
    pub xval_dtlb_err_pct: f64,
    /// Cells attempted (cycle and analytic).
    pub attempted: u64,
    /// One line per failed cell.
    pub failures: Vec<String>,
    /// Cycle-engine cell ids in the order they ran.
    pub order: Vec<String>,
    /// Simulated cycles and counters per cell, keyed `cycle <id>` or
    /// `analytic <id>`.
    pub sims: BTreeMap<String, (u64, Counters)>,
    /// Counters summed over the cycle-engine cells.
    pub counts: Counters,
    /// Records replayed from the store.
    pub store_records: u64,
    /// Warm-replay hits.
    pub store_hits: u64,
}

impl PassResult {
    fn add_cell(&mut self, run: &CellRun) {
        self.attempted += 1;
        self.setup_s += run.setup_s;
        self.run_s += run.run_s;
        let c = &run.counters;
        self.accesses += c.get(Event::Loads) + c.get(Event::Stores) + c.get(Event::IFetches);
        self.counts.merge(c);
        self.order.push(run.id.clone());
        self.sims
            .insert(format!("cycle {}", run.id), (run.cycles, c.clone()));
        if !run.failures.is_empty() {
            self.failures
                .push(format!("{}: {}", run.id, run.failures.join("; ")));
        }
    }
}

/// Shuffle `0..n` with the pass's generator.
fn order(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    idx
}

/// Run one pass of `plan`. `rng` orders the cells; `store_dir` is where
/// the store (if any) is created, and is removed again.
pub fn run_pass(
    plan: &Plan,
    rng: &mut SplitMix64,
    store_dir: &Path,
    tr: &mut Tracer,
) -> PassResult {
    let (mut res, wall_s) = tr.time("bench.pass", |tr| {
        let mut res = PassResult::default();
        for i in order(plan.cells.len(), rng) {
            let run = run_cell(&plan.cells[i], tr);
            res.add_cell(&run);
        }
        tr.time("bench.xval", |tr| xval(plan, rng, tr, &mut res, store_dir));
        res
    });
    res.wall_s = wall_s;
    res
}

/// The analytic cross-check, then (on `analytic`) the store round trip.
fn xval(
    plan: &Plan,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    res: &mut PassResult,
    store_dir: &Path,
) {
    let cells = &plan.xval_cells;
    let mut analytic = vec![None; cells.len()];
    let mut exact: Vec<Option<CellRun>> = vec![None; cells.len()];
    // Key by key, each capture is followed by its own cells' evaluations
    // and cycle runs, so the two sides of `capture_over_cycle` are timed
    // close together.
    for k in order(plan.xval_keys.len(), rng) {
        let (app, threads) = plan.xval_keys[k];
        let (profile, s) = tr.time("prof.capture", |_| capture_profile(app, Class::S, threads));
        res.capture_s += s;
        let mine: Vec<usize> = (0..cells.len())
            .filter(|&i| matches!(&cells[i], Cell::Fig4 { app: a, threads: t, .. } if (*a, *t) == (app, threads)))
            .collect();
        for j in order(mine.len(), rng) {
            let i = mine[j];
            let Cell::Fig4 {
                machine, policy, ..
            } = &cells[i]
            else {
                unreachable!("cross-check cells are Figure-4 cells")
            };
            let point = AnalyticPoint {
                profile: &profile,
                config: machine,
                page_size: policy.heap_page_size_on(machine.arch()),
                demand_faults: false,
            };
            let (r, s) = tr.time("machine.evaluate", |_| evaluate(&point));
            res.evaluate_s += s;
            analytic[i] = Some(r);
        }
        for j in order(mine.len(), rng) {
            let i = mine[j];
            let run = run_cell(&cells[i], tr);
            res.xval_cycle_s += run.setup_s + run.run_s;
            res.add_cell(&run);
            exact[i] = Some(run);
        }
    }
    for (cell, (a, e)) in cells.iter().zip(analytic.iter().zip(&exact)) {
        let (a, e) = (a.as_ref().expect("evaluated"), e.as_ref().expect("ran"));
        let rec = e.record.as_ref().expect("Figure-4 cells keep their record");
        let te = xval_seconds_err_pct(a.seconds, rec.seconds);
        let de = xval_dtlb_err_pct(a.counters.get(Event::DtlbMisses), rec.dtlb_misses());
        res.xval_time_err_pct = res.xval_time_err_pct.max(te);
        res.xval_dtlb_err_pct = res.xval_dtlb_err_pct.max(de);
        res.attempted += 1;
        res.sims.insert(
            format!("analytic {}", cell.id()),
            (a.cycles, a.counters.clone()),
        );
        if te > XVAL_SECONDS_BAND_PCT || de > XVAL_DTLB_BAND_PCT {
            res.failures.push(format!(
                "analytic {}: time err {te:.2}% / dtlb err {de:.2}% outside the bands",
                cell.id()
            ));
        }
    }
    if plan.store {
        tr.time("bench.store", |tr| {
            store_round_trip(cells, &exact, tr, res, store_dir)
        });
    }
}

/// Save the cross-check's cycle records to a fresh store and replay
/// them warm: every record must hit and equal the one saved.
fn store_round_trip(
    cells: &[Cell],
    exact: &[Option<CellRun>],
    tr: &mut Tracer,
    res: &mut PassResult,
    dir: &Path,
) {
    let _ = std::fs::remove_dir_all(dir);
    let (store, open_s) = tr.time("core.store_open", |_| RunStore::open(dir));
    res.setup_s += open_s;
    let store = match store {
        Ok(s) => s,
        Err(e) => {
            res.failures.push(format!("RunStore::open failed: {e}"));
            return;
        }
    };
    let recs: Vec<(StoreKey, &RunRecord)> = cells
        .iter()
        .zip(exact)
        .map(|(cell, e)| {
            let rec = e.as_ref().and_then(|e| e.record.as_ref()).expect("record");
            let Cell::Fig4 { machine, .. } = cell else {
                unreachable!("cross-check cells are Figure-4 cells")
            };
            let key = StoreKey::new(
                machine,
                rec.app,
                rec.class,
                rec.policy,
                rec.threads,
                RunOpts::default(),
                BackendKind::CycleExact,
            );
            (key, rec)
        })
        .collect();
    for (key, rec) in &recs {
        let (saved, _) = tr.time("core.store_save", |_| store.save(key, rec));
        if !matches!(saved, Ok(true)) {
            res.failures.push(format!(
                "store save of {} failed: {saved:?}",
                key.fingerprint()
            ));
        }
    }
    for (key, rec) in &recs {
        res.store_records += 1;
        let (loaded, _) = tr.time("core.store_load", |_| store.load(key));
        match loaded {
            Some(r) if r == **rec => res.store_hits += 1,
            Some(_) => res.failures.push(format!(
                "warm replay of {} {} {} {}t differs from the cold record",
                rec.machine,
                rec.app,
                rec.policy.label(),
                rec.threads
            )),
            None => res.failures.push(format!(
                "warm replay of {} {} {} {}t missed",
                rec.machine,
                rec.app,
                rec.policy.label(),
                rec.threads
            )),
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
