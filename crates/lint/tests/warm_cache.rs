//! The incremental cache must pay for itself on the real workspace: a
//! second run over the unchanged tree is a full hit (every file entry
//! plus the global entry), reports byte-identical findings, and is at
//! least 3× faster than the cold run that filled the cache.

use lint::Options;
use std::path::Path;
use std::time::Instant;

#[test]
fn warm_cache_run_is_a_full_hit_and_3x_faster_than_cold() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cache_dir =
        std::env::temp_dir().join(format!("cookiewall-lint-warm-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cached = Options {
        jobs: 0,
        cache_dir: Some(cache_dir.clone()),
    };

    let t0 = Instant::now();
    let cold = lint::run_with(&root, None, &cached).expect("cold lint run");
    let cold_t = t0.elapsed();
    let t1 = Instant::now();
    let warm = lint::run_with(&root, None, &cached).expect("warm lint run");
    let warm_t = t1.elapsed();
    let _ = std::fs::remove_dir_all(&cache_dir);

    let stats = warm.cache.expect("cache stats are reported");
    assert_eq!(
        stats.file_hits, stats.file_total,
        "unchanged tree must hit every file entry"
    );
    assert!(stats.global_hit, "unchanged tree must hit the global entry");
    assert_eq!(
        cold.render(),
        warm.render(),
        "warm findings must be byte-identical to cold"
    );
    assert!(
        warm_t * 3 <= cold_t,
        "warm cache must be >=3x faster than cold: cold {cold_t:?}, warm {warm_t:?}"
    );
}
