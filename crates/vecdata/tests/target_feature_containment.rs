//! `#[target_feature]` lives only in `crates/vecdata/src/kernel.rs`, the
//! detection-gated dispatch module: a function compiled for a CPU feature
//! is reached only through a `Kernel` value that exists after detection.
//! rustc's `unsafe_code` lint keeps `unsafe` calls out of other modules;
//! this test keeps the attribute out of them, since a safe
//! `#[target_feature]` function needs no `unsafe` to define.
#![allow(
    clippy::disallowed_methods,
    reason = "the test reads the workspace's own sources; no library code touches files"
)]

use std::fs;
use std::path::{Path, PathBuf};

const DISPATCH_MODULE: &str = "crates/vecdata/src/kernel.rs";

/// Every `.rs` file under `dir`, skipping build output and hidden
/// directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn target_feature_only_in_the_dispatch_module() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut files = Vec::new();
    rust_files(root, &mut files);
    assert!(files.len() > 50, "walker lost the workspace: {} files", files.len());

    let mut in_dispatch = 0;
    let mut outside = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap().to_string_lossy();
        let text = fs::read_to_string(file).unwrap();
        for (i, line) in text.lines().enumerate() {
            // An attribute starts its line; comments and strings that name
            // it do not.
            if line.trim_start().starts_with("#[target_feature") {
                if rel == DISPATCH_MODULE {
                    in_dispatch += 1;
                } else {
                    outside.push(format!("{rel}:{}", i + 1));
                }
            }
        }
    }
    assert!(outside.is_empty(), "#[target_feature] outside {DISPATCH_MODULE}: {outside:?}");
    assert!(in_dispatch > 0, "no #[target_feature] found in {DISPATCH_MODULE}");
}
