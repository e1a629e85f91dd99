//! Command-line usage errors: a bad class, backend, app, flag
//! combination or `LPOMP_WORKERS` value exits with status 2 before the
//! binary prints a table or runs a cell.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_running() {
    for (bin, exe, args, workers) in [
        ("fig4", env!("CARGO_BIN_EXE_fig4"), &["Q"][..], None),
        // (`fast` is an accepted alias of `analytic`.)
        (
            "fig4",
            env!("CARGO_BIN_EXE_fig4"),
            &["S", "--backend=turbo"],
            None,
        ),
        (
            "fig4",
            env!("CARGO_BIN_EXE_fig4"),
            &["S", "--backend", "turbo"],
            None,
        ),
        (
            "fig4",
            env!("CARGO_BIN_EXE_fig4"),
            &["S", "--backend"],
            None,
        ),
        (
            "fig4",
            env!("CARGO_BIN_EXE_fig4"),
            &["S", "--shard", "1/2"],
            None,
        ),
        ("fig4", env!("CARGO_BIN_EXE_fig4"), &["S"], Some("0")),
        ("fig4", env!("CARGO_BIN_EXE_fig4"), &["S"], Some("abc")),
        ("diag", env!("CARGO_BIN_EXE_diag"), &["Q"], None),
        ("diag", env!("CARGO_BIN_EXE_diag"), &["S", "NOPE"], None),
    ] {
        let mut cmd = Command::new(exe);
        cmd.args(args).env_remove("LPOMP_WORKERS");
        if let Some(w) = workers {
            cmd.env("LPOMP_WORKERS", w);
        }
        let out = cmd.output().unwrap_or_else(|e| panic!("launch {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?} workers {workers:?}: {stderr}"
        );
        assert!(stderr.contains("error: "), "{bin} {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{bin} {args:?} workers {workers:?} printed before refusing: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
