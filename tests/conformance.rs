//! Paper-conformance gate: the committed DS1 golden snapshots and the
//! base-run fingerprints must match a fresh recomputation bit-for-bit.
//!
//! This runs in the default `cargo test -q` (tier-1), so any change that
//! silently moves a result — an algorithm tweak, a generator change, a
//! clustering or merge refactor — fails here with a field-level diff.
//! Intentional changes are blessed explicitly:
//!
//! ```text
//! cargo run -p td-verify -- --bless   # or TDAC_BLESS=1 cargo test
//! git diff crates/td-verify/goldens/  # review like any code change
//! ```

#[test]
fn ds1_results_match_the_committed_golden() {
    if let Err(diff) = td_verify::check_ds1() {
        panic!("{diff}");
    }
}

#[test]
fn ds1_store_matches_the_committed_golden() {
    if let Err(diff) = td_verify::check_ds1_store() {
        panic!("{diff}");
    }
}

#[test]
fn base_runs_match_the_committed_golden() {
    if let Err(diff) = td_verify::check_base_runs() {
        panic!("{diff}");
    }
}
