//! Command-line usage errors: a bad class, backend, app or flag
//! combination exits with status 2 before the binary prints a table or
//! runs a cell.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_running() {
    for (bin, exe, args) in [
        ("fig4", env!("CARGO_BIN_EXE_fig4"), &["Q"][..]),
        // (`fast` is an accepted alias of `analytic`.)
        (
            "fig4",
            env!("CARGO_BIN_EXE_fig4"),
            &["S", "--backend=turbo"],
        ),
        ("fig4", env!("CARGO_BIN_EXE_fig4"), &["S", "--shard", "1/2"]),
        ("diag", env!("CARGO_BIN_EXE_diag"), &["Q"]),
        ("diag", env!("CARGO_BIN_EXE_diag"), &["S", "NOPE"]),
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("launch {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("error: "), "{bin} {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{bin} {args:?} printed before refusing: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
