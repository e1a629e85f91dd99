//! Command-line usage errors: a bad class, backend or flag combination
//! exits with status 2 before the binary prints a table or runs a cell.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_running() {
    for args in [
        &["Q"][..],
        // (`fast` is an accepted alias of `analytic`.)
        &["S", "--backend=turbo"],
        &["S", "--shard", "1/2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig4"))
            .args(args)
            .output()
            .expect("launch fig4");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "fig4 {args:?}: {stderr}");
        assert!(stderr.contains("error: "), "fig4 {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "fig4 {args:?} printed before refusing: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
