//! The benchmark's own checks. They run every workload at class S
//! (`Scale::Small`); run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use lpomp_perfbench::span::{check_nesting, self_times, Span};
use lpomp_perfbench::workload::{Scale, Workload};
use lpomp_perfbench::{drills, per_layer, run, Args, Report, END_TO_END};
use lpomp_prof::{parse_json, Json};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("test directory");
    dir
}

fn small_run(workload: Workload, seed: u64, trace: bool, dir: &str) -> Report {
    let args = Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
    };
    let r = run(&args, Scale::Small, &work_dir(dir));
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    r
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` list.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), (*u).to_owned()))
        .collect()
}

#[test]
fn emitted_metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");

    let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);

    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layers);

    let untraced = small_run(Workload::Fig4_4k, 1, false, "names");
    assert_eq!(emitted(&untraced), e2e);
    let traced = small_run(Workload::Fig4_4k, 1, true, "names");
    assert_eq!(emitted(&traced), layers);

    // The result line carries exactly the four keys, and every
    // end-to-end value is a nonzero number.
    let line = parse_json(&untraced.result_json()).expect("result line parses");
    let Json::Obj(fields) = &line else {
        panic!("result line is not an object")
    };
    let keys: BTreeSet<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        BTreeSet::from(["correct", "attempted", "failed", "metrics"])
    );
    for (name, v, _) in &untraced.metrics {
        assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
    }
}

#[test]
fn spans_nest_and_self_times_sum_to_traced_wall() {
    let r = small_run(Workload::Analytic, 7, true, "spans");
    check_nesting(&r.spans).expect("spans nest");
    let selfs = self_times(&r.spans);
    assert!(selfs.iter().all(|&t| t >= -1e-9), "negative self time");
    let traced_wall: f64 = r
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum();
    let total: f64 = selfs.iter().sum();
    assert!((total - traced_wall).abs() < 1e-6 * traced_wall.max(1.0));

    let metric = |name: &str| {
        r.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    let layer_sum: f64 = r
        .metrics
        .iter()
        .filter(|m| m.0.ends_with(".self_s"))
        .map(|m| m.1)
        .sum();
    assert!((layer_sum - metric("trace.wall_s")).abs() < 1e-6);
    assert_eq!(metric("core.store_hit_ratio"), 1.0);

    // A child that outlives its parent is caught.
    let bad = [
        Span {
            name: "bench.pass",
            start: 0.0,
            end: 1.0,
            parent: None,
        },
        Span {
            name: "runtime.run",
            start: 0.5,
            end: 1.5,
            parent: Some(0),
        },
    ];
    assert!(check_nesting(&bad).is_err());
}

#[test]
fn seed_changes_drill_streams_not_simulated_counters() {
    let foot = 8 << 20;
    assert_ne!(drills::seq(foot, 1), drills::seq(foot, 2));
    assert_ne!(drills::gather(foot, 1), drills::gather(foot, 2));
    assert_ne!(
        drills::page_stride(foot, 4096, 1),
        drills::page_stride(foot, 4096, 2)
    );
    assert_eq!(drills::gather(foot, 5), drills::gather(foot, 5));

    for w in [Workload::Fig4_4k, Workload::Fig4_2m] {
        let a = small_run(w, 1, false, "seeds");
        let b = small_run(w, 2, false, "seeds");
        assert_ne!(
            a.orders[0], b.orders[0],
            "{w:?}: seed does not reorder cells"
        );
        assert_eq!(a.sims, b.sims, "{w:?}: seed moved simulated counters");
        assert_eq!(a.sim_digest, b.sim_digest);
    }
}
