//! One-command reproduction driver: regenerates every table, figure,
//! ablation and extension of the evaluation into `results/`.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin reproduce [S|W|A]`
//!
//! Equivalent to running each binary of [`REPRODUCE_TARGETS`] by hand
//! with its output redirected. Expect several minutes at class W.

use lpomp_bench::REPRODUCE_TARGETS;
use std::io::Write as _;
use std::process::Command;

fn main() {
    let class = std::env::args().nth(1).unwrap_or_else(|| "W".to_owned());
    let out_dir = std::path::Path::new("results");
    std::fs::create_dir_all(out_dir).expect("create results/");
    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("bin dir")
        .to_path_buf();

    let mut failures = 0;
    for (target, takes_class) in REPRODUCE_TARGETS {
        let exe = exe_dir.join(target);
        let mut cmd = Command::new(&exe);
        if *takes_class {
            cmd.arg(&class);
        }
        print!("running {target} ... ");
        std::io::stdout().flush().ok();
        let start = std::time::Instant::now();
        match cmd.output() {
            Ok(out) if out.status.success() => {
                let suffix = if *takes_class {
                    format!("_{class}")
                } else {
                    String::new()
                };
                let path = out_dir.join(format!("{target}{suffix}.txt"));
                if let Err(e) = std::fs::write(&path, &out.stdout) {
                    println!("FAILED to write {}: {e}", path.display());
                    failures += 1;
                    continue;
                }
                println!(
                    "ok ({:.1}s) -> {}",
                    start.elapsed().as_secs_f64(),
                    path.display()
                );
            }
            Ok(out) => {
                println!("FAILED (status {})", out.status);
                failures += 1;
            }
            Err(e) => {
                println!("FAILED to launch: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} target(s) failed");
        std::process::exit(1);
    }
    println!(
        "\nall outputs in {}/ — compare against EXPERIMENTS.md",
        out_dir.display()
    );
}
