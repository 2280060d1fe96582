//! Replay every committed DST corpus case under `cargo test`.
//!
//! The `dst` sweep records failing `(workload, seed, plan)` triples as
//! `.case` files in `tests/dst_corpus/` at the repository root. Once the
//! underlying bug is fixed, the case is kept as a regression: this test
//! auto-discovers every committed file and asserts that none of them
//! reproduces a violation any more (replay exit code 0). A malformed case
//! file (exit code 2) also fails, so corpus rot is caught immediately.

use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/dst_corpus")
}

fn corpus_cases() -> Vec<PathBuf> {
    let dir = corpus_dir();
    let mut cases: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("readable corpus dir entry").path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("case") => Some(path),
                _ => None,
            }
        })
        .collect();
    cases.sort();
    assert!(
        !cases.is_empty(),
        "no .case files in {} — at least one committed regression case is expected",
        dir.display()
    );
    cases
}

#[test]
fn every_committed_corpus_case_replays_clean() {
    for case in corpus_cases() {
        let path = case.to_string_lossy();
        let code = bench::dst::replay(&path);
        assert_eq!(
            code, 0,
            "corpus case {path} did not replay clean (replay exit code {code}; \
             1 = violation reproduces, 2 = malformed case file)"
        );
    }
}
