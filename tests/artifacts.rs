//! The committed paper artifacts are outputs of the code: `repro all`
//! must rewrite every file it writes into `results/` byte for byte.
//! A change that moves an artifact regenerates `results/` with
//! `repro all --out results` and says why.

use std::path::Path;
use std::process::Command;

#[test]
fn repro_all_matches_committed_results() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-all");
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--out"])
        .arg(&out)
        .output()
        .expect("run repro")
        .status;
    assert!(status.success(), "repro all failed: {status}");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut written = 0;
    let mut mismatched = Vec::new();
    for entry in std::fs::read_dir(&out).expect("read repro output") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        let fresh = std::fs::read(&path).expect("read written file");
        if std::fs::read(committed.join(&name)).ok() != Some(fresh) {
            mismatched.push(name);
        }
        written += 1;
    }
    mismatched.sort();
    assert!(written >= 40, "repro all wrote only {written} files");
    assert!(mismatched.is_empty(), "results/ differs from repro all in: {mismatched:?}");
}
