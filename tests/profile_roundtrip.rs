//! Profile persistence round-trip: a captured reuse profile survives
//! JSON serialization losslessly — not just structurally, but in the
//! strong sense the disk cache relies on: the *analytic predictions*
//! computed from the reloaded profile are byte-identical to those from
//! the original, for every machine preset and page policy.

use lpomp::core::capture_profile;
use lpomp::machine::{evaluate, opteron_2x2, xeon_2x2_ht, AnalyticPoint};
use lpomp::npb::{AppKind, Class, ProfileCache};
use lpomp::prof::reuse::StreamProfile;
use lpomp::vm::PageSize;

/// Every (preset × page size × fault mode) evaluation point.
fn all_points(p: &StreamProfile) -> Vec<lpomp::machine::AnalyticResult> {
    let mut out = Vec::new();
    for machine in [opteron_2x2(), xeon_2x2_ht()] {
        for page_size in [PageSize::Small4K, PageSize::Large2M] {
            for demand_faults in [false, true] {
                out.push(evaluate(&AnalyticPoint {
                    profile: p,
                    config: &machine,
                    page_size,
                    demand_faults,
                }));
            }
        }
    }
    out
}

#[test]
fn reloaded_profile_predicts_byte_identically() {
    let profile = capture_profile(AppKind::Cg, Class::S, 2);
    let json = profile.to_json();
    let reloaded = StreamProfile::from_json(&json).expect("own JSON parses");

    // Structural identity…
    assert_eq!(reloaded.app, profile.app);
    assert_eq!(reloaded.class, profile.class);
    assert_eq!(reloaded.threads, profile.threads);
    assert_eq!(reloaded.checksum.to_bits(), profile.checksum.to_bits());
    assert_eq!(reloaded.phases.len(), profile.phases.len());
    // …and serialization is a fixed point.
    assert_eq!(reloaded.to_json(), json);

    // The strong property: identical predictions everywhere. The
    // evaluator accumulates in f64, so "identical" here means bit-exact
    // seconds and equal counter sheets, via AnalyticResult's PartialEq.
    let before = all_points(&profile);
    let after = all_points(&reloaded);
    assert_eq!(before, after);
    assert!(before.iter().all(|r| r.cycles > 0));
}

#[test]
fn disk_cache_serves_the_same_predictions() {
    // The same property through the ProfileCache disk layer end to end.
    let dir = std::env::temp_dir().join(format!("lpomp-rt-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ProfileCache::with_dir(Some(dir.clone()));
    let captured = cache.get_or_capture(AppKind::Mg, Class::S, 4, || {
        capture_profile(AppKind::Mg, Class::S, 4)
    });

    let cache2 = ProfileCache::with_dir(Some(dir.clone()));
    let reloaded = cache2.get_or_capture(AppKind::Mg, Class::S, 4, || {
        panic!("second cache must load from disk")
    });
    assert_eq!(all_points(&captured), all_points(&reloaded));
    let _ = std::fs::remove_dir_all(&dir);
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn captured_profile_bytes_are_pinned() {
    // The serialized capture of three keys, pinned by digest: FT is the
    // one kernel that records page runs through `stream_read`, and CG at
    // four threads exercises the per-thread recorders in parallel
    // regions. A change to the capture path that moves any histogram
    // count changes these bytes, and so needs an `ENGINE_VERSION` bump
    // (which invalidates profile disk caches) rather than a digest edit.
    for (app, threads, want) in [
        (AppKind::Bt, 1, 0xc6b2_de8b_b27a_9edc_u64),
        (AppKind::Ft, 2, 0x0bba_d83e_5380_733e),
        (AppKind::Cg, 4, 0x19ae_8449_208f_6a8d),
    ] {
        let json = capture_profile(app, Class::S, threads).to_json();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            want,
            "{app:?} S t={threads}: capture bytes changed ({} bytes)",
            json.len()
        );
    }
}
