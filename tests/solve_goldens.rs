//! Golden-fingerprint battery for single-RHS `SStepGmres::solve`.
//!
//! Every case of `support/goldens.rs` — orthogonalization schemes × basis
//! strategies × {Fixed, Auto} step policy × detection guards {off, on} ×
//! {1, 2, 3, 4} simulated ranks, plus the cases the block-equivalence
//! battery pins — is solved on each SIMD backend this host has, and its
//! fingerprint (solution and history hashes, literal counts, full
//! communication ledgers of every rank) must match the committed line in
//! `tests/goldens/solve_fingerprints.txt` exactly.  The goldens were
//! captured from the dedicated single-RHS cycle loop before `solve` became
//! the one-column case of the block cycle, so this battery is the proof
//! that the collapse moved no bit, no count and no ledger entry.

#[path = "support/goldens.rs"]
mod goldens;

use std::fmt::Write as _;

use dense::SimdLevel;
use goldens::{all_cases, available_backends, backend_label, fingerprint, run_case};

#[test]
fn solve_reproduces_committed_goldens() {
    let committed = goldens::goldens();
    let mut mismatches = Vec::new();
    let mut checked = 0usize;
    for level in available_backends() {
        dense::set_simd_override(Some(level));
        for case in all_cases() {
            let key = format!("{} {}", backend_label(level), case.key);
            let got = fingerprint(&run_case(&case));
            match committed.get(&key) {
                Some(want) if *want == got => {}
                Some(want) => mismatches.push(format!("{key}\n  want {want}\n  got  {got}")),
                None => mismatches.push(format!("{key}: no committed golden")),
            }
            checked += 1;
        }
    }
    dense::set_simd_override(None);
    assert!(
        mismatches.is_empty(),
        "{} of {checked} fingerprints moved (first 5):\n{}",
        mismatches.len(),
        mismatches[..mismatches.len().min(5)].join("\n")
    );
}

/// Rewrites `tests/goldens/solve_fingerprints.txt` from the current code.
/// Run only after a change that is meant to move bits, and say why in the
/// change description.
#[test]
#[ignore]
fn print_goldens() {
    let levels = available_backends();
    assert!(
        levels.contains(&SimdLevel::Avx2),
        "regenerate on an AVX2+FMA host so both backends' rows are written"
    );
    let mut out = String::from(
        "# Golden fingerprints of SStepGmres::solve; see tests/support/goldens.rs.\n\
         # <backend> <case> x=<solution hash> | r<rank> <counts> hist=<history hash> total=<ledger> ortho=<ledger> ...\n",
    );
    for level in levels {
        dense::set_simd_override(Some(level));
        for case in all_cases() {
            let fp = fingerprint(&run_case(&case));
            let _ = writeln!(out, "{} {} {fp}", backend_label(level), case.key);
        }
    }
    dense::set_simd_override(None);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/solve_fingerprints.txt"
    );
    std::fs::write(path, out).expect("write the golden file");
}
