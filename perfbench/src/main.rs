//! `lpomp-perfbench --workload W --seed N --seconds N --trace 0|1`
//!
//! Prints one JSON line of ungated context (host CPUs, calibration time,
//! simulated-results digest) and, last, the result line. Failed checks
//! go to standard error. A traced run also writes its spans to
//! `.bench_build/perfbench-run/trace-<workload>-<seed>.json`.

use std::path::Path;
use std::process::ExitCode;

use lpomp_perfbench::span;
use lpomp_perfbench::workload::Scale;
use lpomp_perfbench::{parse_args, run, USAGE};

/// Pin glibc's mmap threshold at its 128 KB default. Left dynamic, it
/// rises after the first large block is freed, later large blocks then
/// come from the heap, where freed memory stays resident, and peak RSS
/// comes to depend on the order the cells ran in. Pinned, every large
/// block is unmapped when freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and only retunes the
    // allocator; it runs before this process starts any other thread.
    if unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } != 1 {
        eprintln!("warning: mallopt(M_MMAP_THRESHOLD) failed; peak RSS may vary with cell order");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A profile directory would let captures be served from disk; every
    // capture here must run cold.
    if std::env::var_os("LPOMP_PROFILE_DIR").is_some() {
        eprintln!("error: LPOMP_PROFILE_DIR is set; the benchmark measures cold captures only");
        return ExitCode::from(2);
    }
    let work = Path::new(".bench_build").join("perfbench-run");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let report = run(&args, Scale::Full, &work);
    for f in &report.failures {
        eprintln!("failed: {f}");
    }
    if args.trace {
        let path = work.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let body = format!(
            "{{\"info\": {},\n\"spans\": {}}}\n",
            report.info_json(&args),
            span::to_json(&report.spans)
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("spans written to {}", path.display());
    }
    println!("{}", report.info_json(&args));
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
