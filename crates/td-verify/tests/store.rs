//! `.tds` store verification: the corruption matrix (every class of
//! hostile file yields a typed [`StoreError`] naming the section — never
//! a panic, never an allocation sized by unvalidated input), arbitrary-
//! bytes fuzzing, and the round-trip property: an arbitrary dataset
//! saved and loaded must produce bit-identical TD-AC outcomes at every
//! thread count and under every distance-kernel policy, and re-encoding
//! a loaded store must reproduce the file byte-for-byte.

use proptest::prelude::*;
use td_algorithms::MajorityVote;
use td_model::{Dataset, DatasetBuilder, Value};
use td_store::{section_table, xxh64, DatasetStore, StoreError};
use td_verify::OutcomeFingerprint;
use tdac_core::{ExecutionBackend, KernelPolicy, Parallelism, Tdac, TdacConfig};

/// A small planted-structure dataset with a packed truth page — the
/// corruption matrix's victim file.
fn victim_bytes() -> Vec<u8> {
    let mut b = DatasetBuilder::new();
    for o in 0..5i64 {
        let obj = format!("o{o}");
        for ai in 0..4u32 {
            let a = format!("a{ai}");
            let good = if ai < 2 { ["s1", "s2"] } else { ["s3", "s4"] };
            let bad = if ai < 2 { ["s3", "s4"] } else { ["s1", "s2"] };
            for s in good {
                b.claim(s, &obj, &a, Value::int(o)).unwrap();
            }
            for (i, s) in bad.iter().enumerate() {
                b.claim(s, &obj, &a, Value::int(1000 * (i as i64 + 1) + o)).unwrap();
            }
        }
    }
    let dataset = b.build();
    Tdac::new(TdacConfig::default())
        .pack(&MajorityVote, &dataset)
        .to_bytes()
}

/// Patch `len` bytes at `offset` and fix up the section table's stored
/// checksum for the section containing the patch, so the corruption
/// reaches the *decoder* instead of tripping the checksum gate.
fn patch_and_rehash(bytes: &mut [u8], section: &str, patch_at: usize, patch: &[u8]) {
    let info = section_table(bytes)
        .unwrap()
        .into_iter()
        .find(|s| s.name == section)
        .unwrap_or_else(|| panic!("no section {section}"));
    let (off, len) = (info.offset as usize, info.len as usize);
    bytes[off + patch_at..off + patch_at + patch.len()].copy_from_slice(patch);
    let sum = xxh64(&bytes[off..off + len]);
    // Section-table entries are 32 bytes starting after the 16-byte
    // header: {kind u32, pad u32, offset u64, len u64, checksum u64}.
    let n_sections = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    for i in 0..n_sections {
        let entry = 16 + i * 32;
        let eoff = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap());
        if eoff as usize == off {
            bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
            return;
        }
    }
    panic!("section entry for {section} not found");
}

#[test]
fn truncated_header_is_typed() {
    let bytes = victim_bytes();
    for cut in [0, 3, 10, 15] {
        match DatasetStore::from_bytes(&bytes[..cut]) {
            Err(StoreError::TruncatedHeader { len }) => assert_eq!(len, cut),
            other => panic!("cut at {cut}: expected TruncatedHeader, got {other:?}"),
        }
    }
    // Truncation inside the section table is also a header-level error.
    match DatasetStore::from_bytes(&bytes[..20]) {
        Err(StoreError::TruncatedHeader { .. }) => {}
        other => panic!("expected TruncatedHeader, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = victim_bytes();
    bytes[0] = b'X';
    match DatasetStore::from_bytes(&bytes) {
        Err(StoreError::BadMagic { found }) => assert_eq!(&found[1..], b"DS1"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn unsupported_version_is_typed() {
    let mut bytes = victim_bytes();
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    match DatasetStore::from_bytes(&bytes) {
        Err(StoreError::UnsupportedVersion { found }) => assert_eq!(found, 99),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn flipped_payload_byte_names_the_damaged_section() {
    let pristine = victim_bytes();
    for section in ["sources", "objects", "attributes", "values", "claims", "truth_pages"] {
        let info = section_table(&pristine)
            .unwrap()
            .into_iter()
            .find(|s| s.name == section)
            .unwrap();
        let mut bytes = pristine.clone();
        let mid = info.offset as usize + info.len as usize / 2;
        bytes[mid] ^= 0x40;
        match DatasetStore::from_bytes(&bytes) {
            Err(StoreError::ChecksumMismatch { section: got }) => assert_eq!(got, section),
            other => panic!("{section}: expected ChecksumMismatch, got {other:?}"),
        }
    }
}

#[test]
fn out_of_bounds_section_is_typed() {
    let pristine = victim_bytes();
    // Stretch each section's declared length past the end of the file.
    let n_sections = u32::from_le_bytes(pristine[8..12].try_into().unwrap()) as usize;
    for i in 0..n_sections {
        let mut bytes = pristine.clone();
        let entry = 16 + i * 32;
        bytes[entry + 16..entry + 24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        match DatasetStore::from_bytes(&bytes) {
            Err(StoreError::SectionOutOfBounds { section }) => {
                assert!(!section.is_empty());
            }
            other => panic!("entry {i}: expected SectionOutOfBounds, got {other:?}"),
        }
    }
}

#[test]
fn hostile_counts_fail_before_allocating() {
    // Declare ~4 billion sources in a tiny file (checksum fixed up so
    // the decoder actually sees the count). A naive
    // `Vec::with_capacity(count)` would try to allocate gigabytes; the
    // decoder must reject against the section's byte length instead.
    let mut bytes = victim_bytes();
    patch_and_rehash(&mut bytes, "sources", 0, &u32::MAX.to_le_bytes());
    match DatasetStore::from_bytes(&bytes) {
        Err(StoreError::Corrupt { section, .. }) => assert_eq!(section, "sources"),
        other => panic!("expected Corrupt(sources), got {other:?}"),
    }
    // Same for the claims table and the truth-page count.
    let mut bytes = victim_bytes();
    patch_and_rehash(&mut bytes, "claims", 0, &u32::MAX.to_le_bytes());
    match DatasetStore::from_bytes(&bytes) {
        Err(StoreError::Corrupt { section, .. }) => assert_eq!(section, "claims"),
        other => panic!("expected Corrupt(claims), got {other:?}"),
    }
    let mut bytes = victim_bytes();
    patch_and_rehash(&mut bytes, "truth_pages", 0, &u32::MAX.to_le_bytes());
    match DatasetStore::from_bytes(&bytes) {
        Err(StoreError::Corrupt { section, .. }) => assert_eq!(section, "truth_pages"),
        other => panic!("expected Corrupt(truth_pages), got {other:?}"),
    }
}

#[test]
fn claim_ids_out_of_range_are_corrupt_not_panics() {
    // Claims are 16-byte (source, object, attribute, value) u32 rows;
    // point the first claim's source id far out of range.
    let mut bytes = victim_bytes();
    patch_and_rehash(&mut bytes, "claims", 8, &0xdead_beefu32.to_le_bytes());
    match DatasetStore::from_bytes(&bytes) {
        // Either the store layer (id-range validation) or the model
        // layer (dataset assembly) may catch it — both are typed.
        Err(StoreError::Corrupt { .. } | StoreError::Model(_)) => {}
        other => panic!("expected Corrupt or Model, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic the loader and never succeed in
    /// building a store out of garbage lacking the magic.
    #[test]
    fn fuzzed_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(store) = DatasetStore::from_bytes(&bytes) {
            // Vanishingly unlikely, but if it parses it must be coherent.
            prop_assert_eq!(store.to_bytes().len(), bytes.len());
        }
    }

    /// Single-byte mutations of a valid file never panic; they either
    /// fail with a typed error or (for bytes the format ignores, e.g.
    /// inside alignment padding counted by a checksum) still decode.
    #[test]
    fn mutated_valid_files_never_panic(
        pos in 0usize..4096,
        mask in 1u32..=255,
    ) {
        let mut bytes = victim_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask as u8;
        let _ = DatasetStore::from_bytes(&bytes);
    }
}

/// Strategy: a small random-but-conflict-free dataset. Dimensions stay
/// tiny (TD-AC sweeps are quadratic) while covering degenerate shapes:
/// single-group, missing claims, value collisions across cells.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        2usize..=4,              // sources
        2usize..=4,              // objects
        3usize..=5,              // attributes
        proptest::collection::vec(0u32..=3, 12..=80), // claim value picks
        any::<u64>(),            // claim-presence bits
    )
        .prop_map(|(ns, no, na, values, presence)| {
            let mut b = DatasetBuilder::new();
            let mut vi = 0;
            let mut bit = 0;
            for s in 0..ns {
                for o in 0..no {
                    for a in 0..na {
                        // Drop ~1/4 of claims to vary coverage, but keep
                        // source s0 complete so the dataset never ends up
                        // empty or attribute-less.
                        let drop = s > 0 && (presence >> (bit % 64)) & 0x3 == 0;
                        bit += 1;
                        if drop {
                            continue;
                        }
                        let v = values[vi % values.len()] as i64;
                        vi += 1;
                        b.claim(
                            &format!("s{s}"),
                            &format!("o{o}"),
                            &format!("a{a}"),
                            Value::int(v),
                        )
                        .unwrap();
                    }
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole round-trip property: pack -> encode -> decode, then
    /// run TD-AC from the store at every thread count and under both
    /// forced distance-kernel policies. Every outcome must fingerprint
    /// bit-identically to the in-memory run with the same config, and
    /// decode -> encode must be the byte identity.
    #[test]
    fn roundtrip_outcomes_are_bit_identical_across_threads_and_kernels(
        dataset in arb_dataset()
    ) {
        let store = Tdac::new(TdacConfig::default()).pack(&MajorityVote, &dataset);
        let bytes = store.to_bytes();
        let loaded = DatasetStore::from_bytes(&bytes).expect("own encoding must decode");
        prop_assert_eq!(loaded.to_bytes(), bytes, "save -> load -> save must be stable");

        for threads in [1usize, 2, 8] {
            for kernel in [KernelPolicy::Dense, KernelPolicy::Packed] {
                let config = TdacConfig {
                    backend: ExecutionBackend::in_process(Parallelism::Threads(threads)),
                    kernel,
                    ..Default::default()
                };
                let tdac = Tdac::new(config);
                let from_store = tdac
                    .run_store(&MajorityVote, &loaded)
                    .expect("store-backed run");
                let in_memory = tdac.run(&MajorityVote, &dataset).expect("in-memory run");
                let (a, b) = (
                    OutcomeFingerprint::of(&from_store),
                    OutcomeFingerprint::of(&in_memory),
                );
                if let Some(diff) = a.diff(&b) {
                    panic!("threads={threads} kernel={kernel:?}: {diff}");
                }
            }
        }
    }
}

#[test]
fn save_and_load_through_the_filesystem() {
    let dataset = {
        let mut b = DatasetBuilder::new();
        for o in 0..4i64 {
            for a in ["a0", "a1", "a2"] {
                b.claim("s1", &format!("o{o}"), a, Value::int(o)).unwrap();
                b.claim("s2", &format!("o{o}"), a, Value::int(o)).unwrap();
                b.claim("s3", &format!("o{o}"), a, Value::int(o + 50)).unwrap();
            }
        }
        b.build()
    };
    let store = Tdac::new(TdacConfig::default()).pack(&MajorityVote, &dataset);
    let path = std::env::temp_dir().join(format!("td-verify-store-{}.tds", std::process::id()));
    store.save(&path).expect("save");
    let loaded = DatasetStore::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.to_bytes(), store.to_bytes());
    let tdac = Tdac::new(TdacConfig::default());
    let a = OutcomeFingerprint::of(&tdac.run_store(&MajorityVote, &loaded).unwrap());
    let b = OutcomeFingerprint::of(&tdac.run(&MajorityVote, &dataset).unwrap());
    assert_eq!(a, b);
}
