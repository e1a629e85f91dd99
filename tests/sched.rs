//! System-level properties of the scheduler: worker invariance of whole
//! E8 experiment cells, exact counter conservation through the
//! `rt:steal` region, and the pinned simulated outcome of every loop
//! schedule.

use lpomp::core::{par_map, PagePolicy, PopulatePolicy, ProfileSpec, System};
use lpomp::machine::{opteron_2x2, NumaConfig, NumaPlacement};
use lpomp::npb::{Class, Kernel, Skew};
use lpomp::prof::{Counters, Event};
use lpomp::runtime::team::Section;
use lpomp::runtime::{Schedule, StealPolicy};
use lpomp::vm::{NumaDaemonConfig, VirtAddr};

/// One E8-shaped cell: SKEW class S on the NUMA Opteron, first-touch,
/// demand faulting, NUMA daemon on, with the given schedule override.
fn run_cell(
    policy: PagePolicy,
    sched: Option<Schedule>,
    steal: StealPolicy,
    spec: ProfileSpec,
) -> (u64, Counters, f64, Option<lpomp::prof::ProfileSheet>) {
    let (mut sys, mut kernel) = build_cell(policy, sched, steal, spec);
    let checksum = kernel.run(&mut sys.team);
    assert!(kernel.verify(checksum), "SKEW checksum drifted");
    (
        sys.team.elapsed_cycles(),
        sys.team.aggregate_counters(),
        checksum,
        sys.team.region_sheet(),
    )
}

/// The system behind [`run_cell`], built but not yet run.
fn build_cell(
    policy: PagePolicy,
    sched: Option<Schedule>,
    steal: StealPolicy,
    spec: ProfileSpec,
) -> (System, Skew) {
    let mut machine = opteron_2x2();
    machine.numa = Some(NumaConfig::opteron(NumaPlacement::FirstTouch));
    let mut kernel = Skew::new(Class::S);
    let mut b = System::builder(machine)
        .policy(policy)
        .threads(4)
        .populate(PopulatePolicy::OnDemand)
        .numa_daemon(NumaDaemonConfig::default())
        .steal_policy(steal)
        .profile(spec);
    if let Some(s) = sched {
        b = b.schedule(s);
    }
    let sys = b.build(&mut kernel).expect("SKEW system builds");
    (sys, kernel)
}

fn grid() -> Vec<(PagePolicy, Option<Schedule>, StealPolicy)> {
    let hier = Some(Schedule::Hierarchical { chunk: 64 });
    let blind = StealPolicy {
        remote_batch: 1,
        work_follows_pages: false,
        pages_follow_work: false,
        topology_aware: false,
    };
    vec![
        (PagePolicy::Small4K, None, StealPolicy::default()),
        (PagePolicy::Small4K, hier, StealPolicy::default()),
        (PagePolicy::Small4K, hier, blind),
        (PagePolicy::Large2M, hier, StealPolicy::default()),
    ]
}

/// The determinism contract of the E8 grid: every cell is a pure
/// function of its configuration, so running the grid under `par_map`
/// at 1, 2 and 4 workers produces byte-identical records — cycles,
/// every counter lane, and the checksum bits.
#[test]
fn ext_sched_cells_are_worker_invariant() {
    let cells = grid();
    let run_all = |workers: usize| -> Vec<(u64, Counters, u64)> {
        par_map(&cells, workers, |_, &(policy, sched, steal)| {
            let (cycles, counters, checksum, _) = run_cell(policy, sched, steal, ProfileSpec::Off);
            (cycles, counters, checksum.to_bits())
        })
    };
    let w1 = run_all(1);
    assert_eq!(w1, run_all(2), "2-worker run diverged");
    assert_eq!(w1, run_all(4), "4-worker run diverged");
}

/// Steal-loop attribution conserves: with region profiling on, the
/// per-region counters (including the new `rt:steal` region) sum
/// exactly to the run's aggregate counters, and the steal counters are
/// live on an imbalanced hierarchical run.
#[test]
fn steal_region_counters_conserve() {
    let (_, counters, _, sheet) = run_cell(
        PagePolicy::Small4K,
        Some(Schedule::Hierarchical { chunk: 64 }),
        StealPolicy::default(),
        ProfileSpec::Regions,
    );
    let sheet = sheet.expect("profiled run returns a sheet");
    assert_eq!(sheet.total(), counters, "attribution leaked");
    let steals = counters.get(Event::LocalSteals) + counters.get(Event::RemoteSteals);
    assert!(steals > 0, "the sawtooth must provoke steals");
    assert!(
        sheet.by_name("rt:steal").is_some(),
        "steal transfers must be attributed to rt:steal"
    );
    assert!(sheet.by_name("rt:barrier").is_some());
    assert!(sheet.by_name("skew:matvec").is_some());
}

/// Profiling stays observational under the hierarchical schedule: the
/// same cell with profiling off and on produces identical cycles,
/// counters and checksum.
#[test]
fn hierarchical_profiling_is_free() {
    let cfg = (
        PagePolicy::Small4K,
        Some(Schedule::Hierarchical { chunk: 64 }),
        StealPolicy::default(),
    );
    let (c0, k0, s0, _) = run_cell(cfg.0, cfg.1, cfg.2, ProfileSpec::Off);
    let (c1, k1, s1, _) = run_cell(cfg.0, cfg.1, cfg.2, ProfileSpec::Regions);
    assert_eq!(c0, c1);
    assert_eq!(k0, k1);
    assert_eq!(s0.to_bits(), s1.to_bits());
}

/// 64-bit FNV-1a over a cell's outcome: elapsed cycles, every aggregate
/// counter lane in `Event::ALL` order, then the checksum bits.
fn digest(cycles: u64, counters: &Counters, checksum: f64) -> u64 {
    let words = std::iter::once(cycles)
        .chain(Event::ALL.iter().map(|&e| counters.get(e)))
        .chain(std::iter::once(checksum.to_bits()));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A static SKEW run followed by one `parallel sections` call (uneven
/// sections striding over the heap) and one `single` call, so both
/// constructs' simulated cost enters the digest.
fn sections_and_single_cell() -> (u64, Counters, f64) {
    let (mut sys, mut kernel) = build_cell(
        PagePolicy::Small4K,
        None,
        StealPolicy::default(),
        ProfileSpec::Off,
    );
    let checksum = kernel.run(&mut sys.team);
    let (heap, span) = (sys.heap_base().0, sys.setup.heap_bytes);
    let section = |k: u64| {
        move |ctx: &mut dyn lpomp::machine::MemoryCtx| {
            for i in 0..64 * (k + 1) {
                ctx.read(VirtAddr(heap + (k * 4096 + i * 576) % span));
                ctx.compute(3 * k + 1);
            }
        }
    };
    let sections: Vec<_> = (0..6).map(section).collect();
    let sections: Vec<Section<'_>> = sections.iter().map(|s| s as Section<'_>).collect();
    sys.team.parallel_sections(&sections);
    sys.team.single(&mut |ctx| {
        for i in 0..256 {
            ctx.write(VirtAddr(heap + i * 4096 % span));
            ctx.compute(2);
        }
    });
    (
        sys.team.elapsed_cycles(),
        sys.team.aggregate_counters(),
        checksum,
    )
}

/// Every schedule's simulated outcome is pinned: SKEW class S under
/// `Static`, `StaticChunk`, `Dynamic`, `Guided` and `Hierarchical`, plus
/// one `parallel sections` and one `single` call, each reduces to a fixed
/// FNV-1a digest of (cycles, aggregate counters, checksum). The
/// hierarchical cells run the default, fully blind, no-work-follows-pages
/// (`-wfp`) and no-pages-follow-work (`-pfw`) steal policies, the last
/// three also with topology-blind victim order alone (the cells where
/// remote steals feed chunk re-homing and daemon hints), and a finer
/// chunk that provokes batched remote steals. A change to the engine's
/// claim loop that moves any cycle or counter fails here.
#[test]
fn every_schedule_outcome_is_pinned() {
    let aware = StealPolicy::default();
    let blind = StealPolicy {
        remote_batch: 1,
        work_follows_pages: false,
        pages_follow_work: false,
        topology_aware: false,
    };
    let no_wfp = |p: StealPolicy| StealPolicy {
        work_follows_pages: false,
        ..p
    };
    let no_pfw = |p: StealPolicy| StealPolicy {
        pages_follow_work: false,
        ..p
    };
    let order_blind = StealPolicy {
        topology_aware: false,
        ..aware
    };
    let hier = Schedule::Hierarchical { chunk: 64 };
    let cells = [
        ("static", Schedule::Static, aware, 0x4529ffb42d5a119d),
        (
            "static,64",
            Schedule::StaticChunk(64),
            aware,
            0x7649f76ed1581ea6,
        ),
        (
            "dynamic,64",
            Schedule::Dynamic(64),
            aware,
            0x7bcd9c9c2cf7d701,
        ),
        ("guided,16", Schedule::Guided(16), aware, 0xb3c31e7fd48b39b5),
        ("hier", hier, aware, 0x83e770f13bde1fd0),
        ("hier blind", hier, blind, 0x1aed0d0dc68539bd),
        ("hier -wfp", hier, no_wfp(aware), 0x83e770f13bde1fd0),
        ("hier -pfw", hier, no_pfw(aware), 0x83e770f13bde1fd0),
        ("hier order-blind", hier, order_blind, 0xc821d7a2c1f8781a),
        (
            "hier order-blind -wfp",
            hier,
            no_wfp(order_blind),
            0xcf23eae08d3560f9,
        ),
        (
            "hier order-blind -pfw",
            hier,
            no_pfw(order_blind),
            0x2a1e0f6e06cdc6a2,
        ),
        (
            "hier,16",
            Schedule::Hierarchical { chunk: 16 },
            aware,
            0x8b05593e4fc35fcc,
        ),
    ];
    for (name, sched, steal, want) in cells {
        let (cycles, counters, checksum, _) =
            run_cell(PagePolicy::Small4K, Some(sched), steal, ProfileSpec::Off);
        let got = digest(cycles, &counters, checksum);
        assert_eq!(got, want, "{name}: simulated outcome moved ({got:#x})");
    }
    let (cycles, counters, checksum) = sections_and_single_cell();
    let got = digest(cycles, &counters, checksum);
    assert_eq!(
        got, 0x623796f1d7713fe0,
        "sections+single: simulated outcome moved ({got:#x})"
    );
}
