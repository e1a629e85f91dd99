//! Seeded per-layer drills: each calls one layer's public entry point on
//! a generated address stream and reports host nanoseconds per call.
//!
//! Three streams cover a workload's data footprint (the largest
//! `Kernel::footprint` among its cells):
//!
//! * `seq` — one access per cache line, front to back from a seeded
//!   starting line, wrapping around;
//! * `page_stride` — the classic large-page stressor: one word per page
//!   (at a seeded offset inside the page), `REPS` passes over the
//!   footprint. Every access lands on a new page, so it isolates the
//!   translation path from the cache;
//! * `gather` — seeded uniform random words.

use std::hint::black_box;
use std::time::Instant;

use lpomp_core::{PagePolicy, SystemBuilder};
use lpomp_machine::{opteron_2x2, AccessMode, Cache, DataKind};
use lpomp_prof::reuse::{MODE_LATENCY, MODE_PIPELINED, MODE_STREAM};
use lpomp_prof::{Counters, ReuseTracker, ThreadRecorder};
use lpomp_tlb::Tlb;
use lpomp_vm::{
    AccessKind, Arch, BuddyAllocator, PageSize, PageTable, PhysAddr, PteFlags, VirtAddr,
};

use crate::workload::Plan;
use crate::SplitMix64;

/// Passes of the page-stride loop.
pub const REPS: u64 = 32;

/// Calls per drill repetition: enough that one repetition takes
/// milliseconds, few enough that the capture recorder's drill stays
/// short.
const OPS: usize = 1 << 18;

/// Timed repetitions per drill; the median is reported.
const TRIALS: usize = 3;

/// Cache line.
const LINE: u64 = 64;

/// Word.
const WORD: u64 = 8;

/// Sequential stream: one offset per line from a seeded start, wrapping
/// around the footprint; at most `OPS` offsets.
pub fn seq(footprint: u64, seed: u64) -> Vec<u64> {
    let lines = (footprint / LINE).max(1);
    let start = SplitMix64::new(seed ^ 0x5e9).next() % lines;
    (0..lines.min(OPS as u64))
        .map(|i| (start + i) % lines * LINE)
        .collect()
}

/// Page-stride stream: one word per `page`, at a seeded word offset,
/// `REPS` passes (more when the footprint holds few pages, so a drill
/// still makes `OPS` calls); at most `OPS` offsets.
pub fn page_stride(footprint: u64, page: u64, seed: u64) -> Vec<u64> {
    let pages = footprint.div_ceil(page).max(1);
    let word = SplitMix64::new(seed ^ 0x9a6e).next() % (page / WORD) * WORD;
    let reps = REPS.max((OPS as u64).div_ceil(pages));
    (0..reps)
        .flat_map(|_| (0..pages).map(move |p| p * page + word))
        .take(OPS)
        .collect()
}

/// Gather stream: `OPS` seeded uniform word offsets in the footprint.
pub fn gather(footprint: u64, seed: u64) -> Vec<u64> {
    let words = (footprint / WORD).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x6a7e);
    (0..OPS).map(|_| rng.next() % words * WORD).collect()
}

/// Median host ns per call of `body` over `ops` calls, `TRIALS` times.
/// `prepare` builds fresh state for each trial outside the timing.
fn time_ns<S>(ops: usize, mut prepare: impl FnMut() -> S, mut body: impl FnMut(&mut S)) -> f64 {
    let mut v: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let mut state = prepare();
            let t0 = Instant::now();
            body(&mut state);
            let ns = t0.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64;
            black_box(&state);
            ns
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Every drill metric of one workload, `(name, ns per call)`.
pub fn run(plan: &Plan, seed: u64) -> Vec<(&'static str, f64)> {
    let foot = plan.drill_cell().kernel().footprint().data_bytes.max(LARGE);
    let seq_s = seq(foot, seed);
    let gather_s = gather(foot, seed);
    let stride_4k = page_stride(foot, SMALL, seed);
    let mut out = Vec::new();

    let machine = opteron_2x2();
    let dtlb = machine.dtlb.clone();
    // Resident set: half the 4 KB L1 DTLB entries, looked up at random.
    let resident = (u64::from(dtlb.l1.entries_at(0)) / 2).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x71b);
    let hits: Vec<VirtAddr> = (0..OPS)
        .map(|_| VirtAddr(BASE + rng.next() % resident * SMALL))
        .collect();
    out.push((
        "tlb.lookup_hit_ns",
        time_ns(
            hits.len(),
            || {
                let mut t = Tlb::new(dtlb.clone());
                for p in 0..resident {
                    t.fill(VirtAddr(BASE + p * SMALL), PageSize::Small4K);
                }
                t
            },
            |t| {
                for &va in &hits {
                    black_box(t.lookup(va));
                }
            },
        ),
    ));
    // Misses: random pages over at least 64× the TLB's 4 KB reach.
    let reach = dtlb.coverage_bytes(PageSize::Small4K);
    let misses: Vec<VirtAddr> = gather(foot.max(64 * reach), seed ^ 0x3155)
        .into_iter()
        .map(|o| VirtAddr(BASE + o))
        .collect();
    out.push((
        "tlb.lookup_miss_ns",
        time_ns(
            misses.len(),
            || Tlb::new(dtlb.clone()),
            |t| {
                for &va in &misses {
                    if !t.lookup(va).is_hit() {
                        t.fill(va, PageSize::Small4K);
                    }
                }
            },
        ),
    ));

    for (name, size) in [
        ("vm.walk_ns.4k", PageSize::Small4K),
        ("vm.walk_ns.2m", PageSize::Large2M),
        ("vm.walk_ns.1g", PageSize::Page1G),
    ] {
        out.push((name, walk_ns(foot, size, seed)));
    }

    for (name, stream) in [
        ("machine.cache_access_ns.seq", &seq_s),
        ("machine.cache_access_ns.gather", &gather_s),
    ] {
        let l2 = machine.l2;
        out.push((
            name,
            time_ns(
                stream.len(),
                || Cache::new(l2),
                |c| {
                    for &o in stream.iter() {
                        black_box(c.access(BASE + o));
                    }
                },
            ),
        ));
    }

    out.extend(data_access_ns(plan, seed));

    for (name, stream, mode) in [
        ("prof.recorder_data_ns.seq", &seq_s, MODE_STREAM),
        (
            "prof.recorder_data_ns.page_stride",
            &stride_4k,
            MODE_PIPELINED,
        ),
        ("prof.recorder_data_ns.gather", &gather_s, MODE_LATENCY),
    ] {
        out.push((
            name,
            time_ns(stream.len(), ThreadRecorder::new, |r| {
                for &o in stream.iter() {
                    r.data(BASE + o, false, mode);
                }
            }),
        ));
    }
    out.push((
        "prof.reuse_access_ns",
        time_ns(gather_s.len(), ReuseTracker::new, |r| {
            for &o in &gather_s {
                black_box(r.access((BASE + o) / LINE));
            }
        }),
    ));
    out
}

const SMALL: u64 = 1 << 12;
const LARGE: u64 = 1 << 21;

/// Virtual base of the drills' synthetic regions (1 GB aligned).
const BASE: u64 = 1 << 40;

/// `PageTable::walk` on the modern x86-64 ladder: the footprint mapped
/// with `size` pages, walked by the page-stride loop.
fn walk_ns(foot: u64, size: PageSize, seed: u64) -> f64 {
    let page = size.bytes();
    let region = foot.div_ceil(page) * page;
    let stream = page_stride(region, page, seed);
    let mut frames = BuddyAllocator::new(256 << 20);
    let mut pt = PageTable::new_for(&mut frames, Arch::X86_64_MODERN)
        .expect("a fresh allocator holds the root table");
    for p in 0..region / page {
        let va = BASE + p * page;
        pt.map(
            &mut frames,
            VirtAddr(va),
            PhysAddr(va),
            size,
            PteFlags::rw(),
        )
        .expect("drill pages map");
    }
    time_ns(
        stream.len(),
        || (),
        |_| {
            for &o in &stream {
                black_box(pt.walk(VirtAddr(BASE + o), AccessKind::Read).ok());
            }
        },
    )
}

/// `Machine::data_access` on a built system's engine: the Opteron at 4
/// threads running the workload's largest-footprint kernel, under 4 KB
/// and 2 MB heaps. Streams stay inside the mapped heap.
fn data_access_ns(plan: &Plan, seed: u64) -> Vec<(&'static str, f64)> {
    let cell = plan.drill_cell();
    let mut out = Vec::new();
    for (policy, names) in [
        (
            PagePolicy::Small4K,
            [
                "machine.data_access_ns.seq.4k",
                "machine.data_access_ns.page_stride.4k",
                "machine.data_access_ns.gather.4k",
            ],
        ),
        (
            PagePolicy::Large2M,
            [
                "machine.data_access_ns.seq.2m",
                "machine.data_access_ns.page_stride.2m",
                "machine.data_access_ns.gather.2m",
            ],
        ),
    ] {
        let mut kernel = cell.kernel();
        let foot = kernel.footprint().data_bytes;
        let mut sys = SystemBuilder::new(opteron_2x2())
            .policy(policy)
            .threads(4)
            .build(kernel.as_mut())
            .expect("the drill system builds");
        let heap = sys.heap_base().0;
        let span = foot.min(sys.setup.heap_bytes).max(WORD);
        let page = policy.heap_page_size_on(Arch::X86_64_2007).bytes();
        let streams = [
            (seq(span, seed), AccessMode::Stream),
            (page_stride(span, page, seed), AccessMode::Pipelined),
            (gather(span, seed), AccessMode::Latency),
        ];
        let engine = sys.team.engine_mut().expect("a built system is simulated");
        for (name, (stream, mode)) in names.into_iter().zip(streams) {
            let ns = time_ns(stream.len(), Counters::new, |c| {
                for &o in &stream {
                    let r = engine.machine.data_access(
                        &mut engine.aspace,
                        0,
                        VirtAddr(heap + o),
                        DataKind::Read,
                        mode,
                        c,
                    );
                    black_box(r.expect("drill addresses lie in the mapped heap"));
                }
            });
            out.push((name, ns));
        }
    }
    out
}
