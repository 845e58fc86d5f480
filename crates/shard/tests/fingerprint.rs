//! A sharded run's options fingerprint: `Options::fingerprint` continued
//! with the shard parameters, folded only when they leave the unsharded
//! default.

use std::path::Path;

use consequence::Options;
use dmt_shard::ShardCfg;
use dmt_trace::Trace;
use dmt_workloads::Params;

fn fingerprint(shards: u32, map_seed: u64) -> u64 {
    let mut cfg = ShardCfg::new(shards, 2, Params::new(2, 1, 42));
    cfg.map_seed = map_seed;
    cfg.fingerprint()
}

#[test]
fn shard_parameters_fold_only_off_the_unsharded_default() {
    let unsharded = Options::consequence_ic().fingerprint();
    assert_eq!(fingerprint(1, 0), unsharded);
    let (two, reseeded) = (fingerprint(2, 0), fingerprint(2, 7));
    assert!(two != reseeded && two != unsharded && reseeded != unsharded);
}

/// The committed sharded container was recorded while the shard
/// parameters were `Options` fields; its fingerprint is still `(2, 0)`'s.
#[test]
fn the_committed_sharded_recording_fingerprints_as_two_shards() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let path = std::fs::read_dir(&corpus)
        .expect("read tests/corpus")
        .map(|e| e.expect("corpus entry").path())
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("dmt_server-sharded-ic-2-") && name.ends_with(".dmtrace")
        })
        .expect("tests/corpus holds a 2-domain sharded container");
    let meta = Trace::open(&path).expect("open the container").meta;
    assert_eq!(meta.options_fingerprint, fingerprint(2, 0));
}
