#![deny(unsafe_code)]
//! `vdtuner-lint`: an offline workspace auditor that turns the repo's
//! determinism and unsafe contracts into enforced rules.
//!
//! The workspace maintains three invariants by hand that neither rustc nor
//! clippy can check:
//!
//! 1. **bit-identical parallel replay** — every parallel path reduces in a
//!    fixed order, so reruns are bit-identical to serial;
//! 2. **wall-clock-free simulation** — sim time flows from the event clock,
//!    never from `Instant::now`;
//! 3. **runtime-guarded SIMD `unsafe`** — every `#[target_feature]` kernel
//!    is reached only through a `vecdata::kernel::Kernel` value that exists
//!    only after CPUID detection, and every `unsafe` site carries a written
//!    justification.
//!
//! [`rules`] encodes them as four rules (R1–R4) over a hand-rolled token
//! stream ([`lexer`] — no dependencies; the build environment is
//! vendored-only). [`scan_workspace`] walks every `crates/*/{src,tests,
//! benches}` and root `src`/`tests`/`examples` Rust file, and the
//! `vdtuner-lint` binary emits `results/lint.json` and exits nonzero on any
//! unsuppressed finding. See [`WorkspaceReport::to_json`] for the JSON
//! schema, and ARCHITECTURE.md ("Determinism contracts, enforced") for the
//! invariant-to-rule map.

pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use rules::{scan_source, FileReport, Finding, Rule, Suppression};

/// Per-file unsafe inventory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeInventory {
    pub sites: usize,
    pub documented: usize,
}

/// Aggregate scan result for the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub findings: Vec<Finding>,
    pub suppressions: Vec<Suppression>,
    /// `rel_path -> inventory`, only for files with at least one `unsafe`.
    pub unsafe_inventory: BTreeMap<String, UnsafeInventory>,
    pub files_scanned: usize,
}

impl WorkspaceReport {
    /// True when no unsuppressed finding exists anywhere.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Total `unsafe` sites across the workspace.
    pub fn unsafe_sites(&self) -> usize {
        self.unsafe_inventory.values().map(|v| v.sites).sum()
    }

    /// Total documented `unsafe` sites across the workspace.
    pub fn unsafe_documented(&self) -> usize {
        self.unsafe_inventory.values().map(|v| v.documented).sum()
    }

    fn absorb(&mut self, rel_path: &str, file: FileReport) {
        self.files_scanned += 1;
        self.findings.extend(file.findings);
        self.suppressions.extend(file.suppressions);
        if file.unsafe_sites > 0 {
            self.unsafe_inventory.insert(
                rel_path.to_string(),
                UnsafeInventory { sites: file.unsafe_sites, documented: file.unsafe_documented },
            );
        }
    }

    /// Render the report as the `results/lint.json` document.
    ///
    /// Top-level keys (all required):
    ///
    /// * `schema` (str, `"vdtuner-lint-v1"`), `clean` (bool — true iff every
    ///   rule's `findings` list is empty; the process exit code mirrors it),
    ///   `files_scanned` (int);
    /// * `rules` (obj) — keyed `r1_unsafe_safety`, `r2_hash_collection`,
    ///   `r3_wall_clock`, `r4_par_float_fold`; each value: `description`
    ///   (str) and `findings` (array of obj: `file` (str, workspace-relative),
    ///   `line` (int, 1-based), `message` (str));
    /// * `suppressions` (array of obj) — every `lint:allow(<rule>): <why>`
    ///   tag that actually suppressed a finding: `rule` (str, one of the rule
    ///   keys above), `file` (str), `line` (int, the suppressed trigger's
    ///   line), `reason` (str, never empty — a tag without a justification
    ///   does not suppress);
    /// * `unsafe_inventory` (obj) — `total_sites` / `total_documented` (int)
    ///   and `files` (obj keyed by workspace-relative path, only files with
    ///   at least one `unsafe`): `sites` / `documented` (int).
    ///
    /// `clean`, the inventory totals and the finding fields hold by
    /// construction here; `crates/lint/tests/workspace_pin.rs` pins the
    /// schema string, the rule keys, a clean workspace, the inventory counts
    /// and the suppression set.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"vdtuner-lint-v1\",\n");
        push_kv(&mut s, 1, "clean", &self.clean().to_string());
        push_kv(&mut s, 1, "files_scanned", &self.files_scanned.to_string());

        s.push_str("  \"rules\": {\n");
        for (ri, rule) in Rule::ALL.iter().enumerate() {
            let findings: Vec<&Finding> =
                self.findings.iter().filter(|f| f.rule == *rule).collect();
            s.push_str(&format!("    {}: {{\n", json_str(rule.key())));
            s.push_str(&format!("      \"description\": {},\n", json_str(rule.description())));
            s.push_str(&format!(
                "      \"findings\": [{}\n",
                if findings.is_empty() { "]" } else { "" }
            ));
            for (i, f) in findings.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
                    json_str(&f.file),
                    f.line,
                    json_str(&f.message),
                    if i + 1 == findings.len() { "" } else { "," }
                ));
            }
            if !findings.is_empty() {
                s.push_str("      ]\n");
            }
            s.push_str(&format!("    }}{}\n", if ri + 1 == Rule::ALL.len() { "" } else { "," }));
        }
        s.push_str("  },\n");

        s.push_str(&format!(
            "  \"suppressions\": [{}\n",
            if self.suppressions.is_empty() { "]," } else { "" }
        ));
        for (i, sp) in self.suppressions.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}{}\n",
                json_str(sp.rule.key()),
                json_str(&sp.file),
                sp.line,
                json_str(&sp.reason),
                if i + 1 == self.suppressions.len() { "" } else { "," }
            ));
        }
        if !self.suppressions.is_empty() {
            s.push_str("  ],\n");
        }

        s.push_str("  \"unsafe_inventory\": {\n");
        push_kv(&mut s, 2, "total_sites", &self.unsafe_sites().to_string());
        push_kv(&mut s, 2, "total_documented", &self.unsafe_documented().to_string());
        s.push_str("    \"files\": {\n");
        let n = self.unsafe_inventory.len();
        for (i, (path, inv)) in self.unsafe_inventory.iter().enumerate() {
            s.push_str(&format!(
                "      {}: {{\"sites\": {}, \"documented\": {}}}{}\n",
                json_str(path),
                inv.sites,
                inv.documented,
                if i + 1 == n { "" } else { "," }
            ));
        }
        s.push_str("    }\n  }\n}\n");
        s
    }
}

fn push_kv(s: &mut String, indent: usize, key: &str, raw_value: &str) {
    s.push_str(&format!("{}{}: {},\n", "  ".repeat(indent), json_str(key), raw_value));
}

/// RFC 8259 string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Directories scanned inside each crate (and at the workspace root).
const SOURCE_DIRS: &[&str] = &["src", "tests", "benches", "examples"];

/// Walk the workspace rooted at `root` and scan every first-party Rust
/// source. `vendor/`, `target/` and the lint fixtures themselves are
/// excluded; fixtures exist to *violate* the rules.
pub fn scan_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in SOURCE_DIRS {
        collect_rs(&root.join(dir), &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            for dir in SOURCE_DIRS {
                collect_rs(&crate_dir.join(dir), &mut files)?;
            }
        }
    }
    files.sort();

    let mut report = WorkspaceReport::default();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        report.absorb(&rel, scan_source(&rel, &src));
    }
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.suppressions.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Recursively collect `*.rs` under `dir` (sorted, so reports are stable).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
