//! Fault-injection corpus for the checkpoint layer.
//!
//! Contract under test: **every** way a checkpoint directory can be
//! damaged — truncation, bit flips, missing files, format skew,
//! structural garbage — must surface as a *typed* [`CkptError`], never
//! a panic and never a silently-wrong model. Each test builds a healthy
//! checkpoint, injects one fault, and asserts both the error variant
//! and that a subsequent load of an undamaged copy still succeeds (the
//! reader holds no global state that a failed load could corrupt).
//!
//! The file-level checksum in the manifest stops almost every random
//! corruption before the record decoder runs. The mutation corpus at
//! the end re-stamps that checksum after damaging a blob, so the damage
//! reaches the per-record decoder behind it.

use proptest::collection::vec;
use proptest::prelude::*;
use stwa_ckpt::{
    CkptError, Manifest, NamedTensor, Registry, TrainCheckpoint, MANIFEST_FILE, OPTIM_BLOB,
    PARAMS_BLOB,
};
use stwa_nn::ParamStore;
use stwa_tensor::Tensor;

/// A fresh checkpoint directory with parameters, optimizer moments, and
/// best-params — every blob the format supports.
fn healthy(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stwa_corruption_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let store = ParamStore::new();
    store.param(
        "enc.w",
        Tensor::from_vec((0..24).map(|i| i as f32 * 0.25 - 3.0).collect(), &[4, 6]).unwrap(),
    );
    store.param("dec.b", Tensor::from_vec(vec![1.5, -2.5, 0.125], &[3]).unwrap());

    let mut ckpt = TrainCheckpoint::params_only("ST-WA", &store);
    ckpt.seed = 21;
    ckpt.config_hash = 0xC0FF_EE00;
    ckpt.epoch = 2;
    ckpt.step = 34;
    ckpt.rng = [11, 22, 33, 44];
    ckpt.best_val = 17.25;
    ckpt.history = vec![(30.0, 19.5), (24.0, 17.25)];
    ckpt.opt_m = ckpt
        .params
        .iter()
        .map(|t| NamedTensor {
            name: t.name.clone(),
            shape: t.shape.clone(),
            data: vec![0.01; t.data.len()],
        })
        .collect();
    ckpt.opt_v = ckpt.opt_m.clone();
    ckpt.best_params = ckpt.params.clone();
    ckpt.save_dir(&dir, 1).unwrap();
    dir
}

fn cleanup(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn healthy_fixture_loads() {
    let dir = healthy("healthy");
    let ckpt = TrainCheckpoint::load_dir(&dir).unwrap();
    assert_eq!(ckpt.model, "ST-WA");
    assert_eq!(ckpt.params.len(), 2);
    assert!(ckpt.has_optimizer());
    cleanup(&dir);
}

#[test]
fn truncated_blob_is_typed() {
    // Cut the params blob at several depths; all must fail typed, none
    // may panic or load.
    for cut_frac in [0.0, 0.3, 0.7, 0.99] {
        let dir = healthy("truncated");
        let path = dir.join(PARAMS_BLOB);
        let bytes = std::fs::read(&path).unwrap();
        let keep = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..keep]).unwrap();

        match TrainCheckpoint::load_dir(&dir) {
            Err(CkptError::Truncated { .. }) => {}
            other => panic!("cut at {cut_frac}: expected Truncated, got {other:?}"),
        }
        cleanup(&dir);
    }
}

#[test]
fn bit_flipped_tensor_is_checksum_mismatch() {
    // Flip a single bit at every eighth byte of the params blob. The
    // file-level checksum catches all of them (same length, different
    // content).
    let reference = std::fs::read(healthy("flip_ref").join(PARAMS_BLOB)).unwrap();
    for at in (0..reference.len()).step_by(8) {
        let dir = healthy("bitflip");
        let path = dir.join(PARAMS_BLOB);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        match TrainCheckpoint::load_dir(&dir) {
            Err(CkptError::ChecksumMismatch { .. }) => {}
            other => panic!("flip at byte {at}: expected ChecksumMismatch, got {other:?}"),
        }
        cleanup(&dir);
    }
}

#[test]
fn bit_flip_in_optimizer_blob_is_caught_too() {
    let dir = healthy("optflip");
    let path = dir.join(OPTIM_BLOB);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        TrainCheckpoint::load_dir(&dir),
        Err(CkptError::ChecksumMismatch { .. })
    ));
    cleanup(&dir);
}

#[test]
fn missing_manifest_is_typed() {
    let dir = healthy("no_manifest");
    std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
    assert!(matches!(
        TrainCheckpoint::load_dir(&dir),
        Err(CkptError::MissingManifest(_))
    ));
    cleanup(&dir);
}

#[test]
fn missing_blob_is_typed() {
    let dir = healthy("no_blob");
    std::fs::remove_file(dir.join(PARAMS_BLOB)).unwrap();
    assert!(matches!(
        TrainCheckpoint::load_dir(&dir),
        Err(CkptError::MissingBlob(_))
    ));
    cleanup(&dir);
}

#[test]
fn version_skew_manifest_is_typed() {
    let dir = healthy("skew");
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let skewed = text.replacen("\"format\": 1", "\"format\": 9", 1);
    assert_ne!(text, skewed, "fixture must contain the format field");
    std::fs::write(&path, skewed).unwrap();
    match TrainCheckpoint::load_dir(&dir) {
        Err(CkptError::VersionSkew {
            found, supported, ..
        }) => {
            assert_eq!(found, 9);
            assert_eq!(supported, stwa_ckpt::FORMAT_VERSION);
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
    cleanup(&dir);
}

#[test]
fn garbage_manifest_is_format_error() {
    for garbage in [
        "",                      // empty file
        "not json at all",       // unparseable
        "{}",                    // parseable, structurally empty
        "{\"format\": 1}",       // format ok, fields missing
        "[1, 2, 3]",             // wrong top-level shape
    ] {
        let dir = healthy("garbage");
        std::fs::write(dir.join(MANIFEST_FILE), garbage).unwrap();
        match TrainCheckpoint::load_dir(&dir) {
            Err(CkptError::Format { .. }) => {}
            other => panic!("manifest {garbage:?}: expected Format, got {other:?}"),
        }
        cleanup(&dir);
    }
}

#[test]
fn manifest_blob_entry_lying_about_size_is_truncation() {
    // The blob on disk is intact; the manifest's byte count disagrees.
    // The reader must trust neither side and refuse.
    let dir = healthy("size_lie");
    // Append a byte to the params blob: the manifest's recorded size no
    // longer matches the file, exactly as if the manifest lied.
    let blob = dir.join(PARAMS_BLOB);
    let mut bytes = std::fs::read(&blob).unwrap();
    bytes.push(0u8);
    std::fs::write(&blob, &bytes).unwrap();
    assert!(matches!(
        TrainCheckpoint::load_dir(&dir),
        Err(CkptError::Truncated { .. })
    ));
    cleanup(&dir);
}

#[test]
fn corrupt_checkpoint_never_reaches_a_store() {
    // End-to-end: a bit-flipped checkpoint must leave a loading store
    // completely untouched — the typed error fires before any value is
    // written.
    let dir = healthy("no_partial_load");
    let path = dir.join(PARAMS_BLOB);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let store = ParamStore::new();
    store.param("enc.w", Tensor::full(&[4, 6], 7.0));
    store.param("dec.b", Tensor::full(&[3], 7.0));
    let before = store.version();

    assert!(TrainCheckpoint::load_dir(&dir).is_err());
    assert_eq!(store.version(), before, "store must be untouched");
    for p in store.params() {
        assert!(p.value().data().iter().all(|&v| v == 7.0));
    }
    cleanup(&dir);
}

#[test]
fn registry_load_propagates_corruption_errors() {
    // Publish through the registry, corrupt the published version, and
    // load through the registry path — the typed error must survive the
    // indirection.
    let root = std::env::temp_dir().join(format!(
        "stwa_corruption_registry_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();

    let store = ParamStore::new();
    store.param("w", Tensor::full(&[2, 2], 1.0));
    let version = registry
        .publish("demo", &TrainCheckpoint::params_only("demo", &store))
        .unwrap();

    let blob = registry.version_dir("demo", version).join(PARAMS_BLOB);
    let mut bytes = std::fs::read(&blob).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&blob, &bytes).unwrap();

    assert!(matches!(
        registry.load("demo", None),
        Err(CkptError::ChecksumMismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(&root);
}

/// FNV-1a 64, written out here rather than borrowed from the crate, so
/// a re-stamped manifest does not depend on the code under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Point the manifest's entry for `file` at the blob as it now is on
/// disk: its byte count and whole-file checksum.
fn restamp(dir: &std::path::Path, file: &str) {
    let bytes = std::fs::read(dir.join(file)).unwrap();
    let path = dir.join(MANIFEST_FILE);
    let mut manifest = Manifest::read(&path).unwrap();
    let entry = manifest.blobs.iter_mut().find(|b| b.file == file).unwrap();
    entry.bytes = bytes.len() as u64;
    entry.checksum = fnv1a(&bytes);
    manifest.write(&path).unwrap();
}

/// Each tensor's name, shape and value bits.
fn tensor_bits(tensors: &[NamedTensor]) -> Vec<(&str, &[usize], Vec<u32>)> {
    let bits = |t: &NamedTensor| t.data.iter().map(|v| v.to_bits()).collect();
    tensors
        .iter()
        .map(|t| (t.name.as_str(), &t.shape[..], bits(t)))
        .collect()
}

fn same_values(a: &TrainCheckpoint, b: &TrainCheckpoint) -> bool {
    [
        (&a.params, &b.params),
        (&a.opt_m, &b.opt_m),
        (&a.opt_v, &b.opt_v),
        (&a.best_params, &b.best_params),
    ]
    .iter()
    .all(|(x, y)| tensor_bits(x) == tensor_bits(y))
}

/// Damage `bytes` in place. `kind` picks the mutation: flip bytes,
/// truncate, or splice (replace a range with junk or with a copy of
/// another range of the same blob, which can duplicate whole fields).
fn mutate(bytes: &mut Vec<u8>, kind: usize, picks: &[u64], junk: &[u8]) {
    let len = bytes.len();
    let pick = |i: usize, n: usize| (picks[i] % n.max(1) as u64) as usize;
    match kind {
        0 => {
            for i in 0..1 + pick(0, 3) {
                let at = pick(1 + i, len);
                bytes[at] ^= (picks[4 + i] as u8).max(1);
            }
        }
        1 => bytes.truncate(pick(0, len)),
        _ => {
            let from = pick(0, len);
            let to = from + pick(1, (len - from).min(24) + 1);
            let insert: Vec<u8> = if picks[2].is_multiple_of(2) {
                junk.to_vec()
            } else {
                let src = pick(3, len);
                bytes[src..(src + pick(4, 24)).min(len)].to_vec()
            };
            bytes.splice(from..to, insert);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Damage behind a valid file checksum must still fail typed: the
    /// record decoder returns a `CkptError`, never panics, and never
    /// hands back values other than the ones saved.
    #[test]
    fn restamped_blob_corruption_fails_typed_in_the_record_decoder(
        optim in any::<bool>(),
        kind in 0usize..3,
        picks in vec(any::<u64>(), 8..=8),
        junk in vec(any::<u8>(), 0..24),
    ) {
        let dir = healthy("restamped");
        let original = TrainCheckpoint::load_dir(&dir).unwrap();
        let file = if optim { OPTIM_BLOB } else { PARAMS_BLOB };
        let path = dir.join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        mutate(&mut bytes, kind, &picks, &junk);
        std::fs::write(&path, &bytes).unwrap();
        restamp(&dir, file);
        let outcome = TrainCheckpoint::load_dir(&dir);
        cleanup(&dir);
        match outcome {
            // A splice can rewrite a range with its own bytes.
            Ok(loaded) => prop_assert!(
                same_values(&loaded, &original),
                "kind {} loaded different values", kind
            ),
            Err(CkptError::ChecksumMismatch { tensor: None, .. }) => {
                prop_assert!(false, "re-stamped file checksum was not accepted")
            }
            Err(
                CkptError::Format { .. }
                | CkptError::Truncated { .. }
                | CkptError::VersionSkew { .. }
                | CkptError::ChecksumMismatch { .. },
            ) => {}
            Err(other) => prop_assert!(false, "untyped corruption outcome: {other:?}"),
        }
    }
}
