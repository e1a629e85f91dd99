//! `reproduce` regenerates every committed result: each `results/*.txt`
//! stem names a binary in [`REPRODUCE_TARGETS`], with a class suffix
//! exactly when that binary takes the class argument.

use lpomp_bench::REPRODUCE_TARGETS;

#[test]
fn every_results_file_is_a_reproduce_target() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut stems: Vec<String> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_owned())
        .collect();
    stems.sort();
    assert!(!stems.is_empty(), "no results in {}", results.display());
    let missing: Vec<&String> = stems
        .iter()
        .filter(|stem| {
            !REPRODUCE_TARGETS
                .iter()
                .any(|&(bin, takes_class)| match stem.strip_prefix(bin) {
                    Some("") => !takes_class,
                    Some(rest) => takes_class && ["_S", "_W", "_A", "_B"].contains(&rest),
                    None => false,
                })
        })
        .collect();
    assert!(
        missing.is_empty(),
        "results/ files reproduce never writes: {missing:?}"
    );
}
