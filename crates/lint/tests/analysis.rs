//! Workspace-level pins for the structural analyzer: the allow budget
//! per rule family, seed-registry coverage, and the R001 acceptance
//! check on the real `Scenario` definition.

use liteworp_lint::lexer::Lexed;
use liteworp_lint::{allow, ast, check_file, scan, seed_registry, FileClass, SourceFile};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Every escape hatch in the workspace, counted per rule family. The
/// pins move only when an allow is added or removed *on purpose*: a
/// drive-by allow shows up here as a diff the reviewer has to touch.
#[test]
fn allow_counts_per_family_are_pinned() {
    let files = scan::collect_files(&workspace_root()).expect("walk workspace");
    assert!(files.len() > 100, "walk regressed: {} files", files.len());
    let mut counts = [0usize; 26];
    for f in &files {
        let lexed = Lexed::lex(&f.src);
        for a in allow::parse_allows(&f.src, &lexed) {
            let family = a.rule.as_bytes().first().copied().unwrap_or(b'?');
            if family.is_ascii_uppercase() {
                counts[(family - b'A') as usize] += 1;
            }
        }
    }
    let per_family: Vec<(char, usize)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| ((b'A' + i as u8) as char, n))
        .collect();
    assert_eq!(
        per_family,
        vec![('C', 1), ('D', 7), ('P', 22)],
        "allow budget drifted — every new `lint: allow` needs a reviewed reason \
         and a pin update here"
    );
}

/// Every name in the seed-hash registry must correspond to a real type
/// somewhere in the workspace library sources, so a rename cannot
/// silently drop a type out of R001's coverage.
#[test]
fn seed_registry_names_resolve_to_workspace_types() {
    let files = scan::collect_files(&workspace_root()).expect("walk workspace");
    let mut defined: Vec<String> = Vec::new();
    for f in files.iter().filter(|f| f.class == FileClass::Lib) {
        let lexed = Lexed::lex(&f.src);
        let parsed = ast::parse(&f.src, &lexed);
        defined.extend(parsed.types.iter().map(|t| t.name.clone()));
    }
    for name in seed_registry::SEED_HASH_TYPES {
        assert!(
            defined.iter().any(|d| d == name),
            "seed registry names `{name}` but no workspace library type has that \
             name — update crates/lint/src/seed_registry.rs"
        );
    }
}

/// The ISSUE's acceptance check: re-deriving `Debug` on the real
/// `Scenario` (whose Debug string is hashed into every experiment seed)
/// must fail the gate with R001.
#[test]
fn rederiving_debug_on_scenario_fails_r001() {
    let path = workspace_root().join("crates/bench/src/scenario.rs");
    let src = std::fs::read_to_string(&path).expect("read scenario.rs");
    let needle = "#[derive(Clone)]\npub struct Scenario {";
    assert!(
        src.contains(needle),
        "scenario.rs changed shape — update this acceptance test"
    );
    let patched = src.replace(needle, "#[derive(Debug, Clone)]\npub struct Scenario {");
    let file = SourceFile {
        path: "crates/bench/src/scenario.rs".to_string(),
        src: patched,
        class: FileClass::Lib,
        is_crate_root: false,
    };
    let diags = check_file(&file);
    assert!(
        diags.iter().any(|d| d.rule == "R001"),
        "expected R001 on the re-derived Scenario, got: {diags:?}"
    );
    // And the untouched file stays clean, so the diagnostic above is
    // attributable to the injected derive alone.
    let clean = SourceFile {
        path: "crates/bench/src/scenario.rs".to_string(),
        src,
        class: FileClass::Lib,
        is_crate_root: false,
    };
    let diags = check_file(&clean);
    assert!(
        diags.is_empty(),
        "scenario.rs not clean standalone: {diags:?}"
    );
}
