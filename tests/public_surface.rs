//! Public-surface guard: every `pub fn` outside `vendor/` and
//! `perfbench/` has a product caller, or a committed reason to stay
//! public.
//!
//! A name counts as *used* when some `.rs` file mentions it as a whole
//! word outside a `pub use` re-export, and that file is
//! - not the file that defines it;
//! - not under `vendor/` or `perfbench/`;
//! - not in any `tests/` directory.
//!
//! Definitions are scanned outside `vendor/`, `perfbench/` and
//! `tests/` directories. The guard reads the working tree, not the git
//! index: it skips `target/` and `results/` (build and report output)
//! and hidden directories, but any other untracked `.rs` file in the
//! checkout counts as a caller or a definition.
//!
//! The rule is textual, so a name that collides with another word (a
//! field, a local, a method of another type) reads as used even when
//! nothing calls it. The guard can only under-report.
//!
//! A `pub fn` that fails the rule must be on [`ALLOWED`] with its
//! reason: perfbench (its own workspace, compiled by CI against these
//! crates) calls it, or a named integration test needs it public. The
//! guard also fails when an entry goes stale — the function gained a
//! product caller, or is gone — or when its reason no longer holds.
//!
//! Run it with `cargo test --release --test public_surface`.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

/// Why a `pub fn` with no product caller stays public.
enum Reason {
    /// perfbench calls it, so its signature is pinned.
    Perfbench,
    /// The integration test `fn` named second, in the file named first,
    /// calls it.
    Contract(&'static str, &'static str),
}

use Reason::{Contract, Perfbench};

const CORE_PROPS: &str = "crates/core/tests/properties.rs";

/// `(defining file, function, reason)`.
const ALLOWED: &[(&str, &str, Reason)] = &[
    ("crates/core/src/coded.rs", "bits_per_use", Perfbench),
    ("crates/core/src/coded.rs", "tx_stream", Perfbench),
    ("crates/ran/src/cpu.rs", "per_problem_us", Perfbench),
    (
        "crates/anneal/src/kernel.rs",
        "is_supported",
        Contract(
            "tests/sampler_v3.rs",
            "every_instruction_set_matches_the_scalar_reference",
        ),
    ),
    (
        "crates/baselines/src/sphere.rs",
        "with_initial_radius",
        Contract(
            "tests/failure_injection.rs",
            "sphere_budget_and_radius_failures_are_typed",
        ),
    ),
    (
        "crates/chimera/src/embedded.rs",
        "chain_coupler",
        Contract(
            "crates/chimera/tests/properties.rs",
            "intact_energy_identity",
        ),
    ),
    (
        "crates/core/src/coded.rs",
        "decode_hard",
        Contract(CORE_PROPS, "saturated_llr_pipeline_equals_hard_pipeline"),
    ),
    (
        "crates/core/src/metrics.rs",
        "from_parts",
        Contract(CORE_PROPS, "eq9_bounds"),
    ),
    (
        "crates/core/src/metrics.rs",
        "anneals_to_ber",
        Contract(
            "tests/ran_pipeline.rs",
            "measured_anneal_budget_feeds_the_deadline_model",
        ),
    ),
    (
        "crates/core/src/precode.rs",
        "num_vars",
        Contract(CORE_PROPS, "vpp_qubo_energy_identity"),
    ),
    (
        "crates/core/src/precode.rs",
        "with_tau",
        Contract(CORE_PROPS, "vpp_qubo_energy_identity"),
    ),
    (
        "crates/core/src/precode.rs",
        "box_corner",
        Contract(CORE_PROPS, "vpp_qubo_energy_identity"),
    ),
    (
        "crates/core/src/precode.rs",
        "qubo_for",
        Contract(CORE_PROPS, "vpp_qubo_energy_identity"),
    ),
    (
        "crates/core/src/precode.rs",
        "direct_energy",
        Contract(CORE_PROPS, "vpp_qubo_energy_identity"),
    ),
    (
        "crates/core/src/precode.rs",
        "decode_perturbation",
        Contract(CORE_PROPS, "vpp_qubo_energy_identity"),
    ),
    (
        "crates/core/src/precode.rs",
        "reduced_problem",
        Contract(
            CORE_PROPS,
            "shared_coupling_views_price_every_spin_string_like_the_reference",
        ),
    ),
    (
        "crates/core/src/precode.rs",
        "basis_change",
        Contract(CORE_PROPS, "vpp_lr_basis_change_is_unimodular"),
    ),
    (
        "crates/core/src/precode.rs",
        "encode_perturbation",
        Contract(
            CORE_PROPS,
            "vpp_lr_reverse_candidate_is_clamped_into_the_box",
        ),
    ),
    (
        "crates/ising/src/convert.rs",
        "ising_to_qubo",
        Contract(
            "crates/ising/tests/properties.rs",
            "reverse_conversion_energy_identity",
        ),
    ),
    (
        "crates/ising/src/exact.rs",
        "rank_all_solutions",
        Contract("crates/ising/tests/properties.rs", "exact_is_a_lower_bound"),
    ),
    (
        "crates/ising/src/compiled.rs",
        "local_fields_into",
        Contract(
            "crates/ising/tests/properties.rs",
            "compiled_matches_naive_on_dense",
        ),
    ),
    (
        "crates/linalg/src/matrix.rs",
        "norm_one",
        Contract("crates/linalg/tests/properties.rs", "lu_residual_is_small"),
    ),
    (
        "crates/ran/src/load.rs",
        "flash_crowd",
        Contract(
            "crates/ran/tests/properties.rs",
            "flash_crowd_load_is_deterministic",
        ),
    ),
    (
        "crates/ran/src/serve.rs",
        "resolve_shed",
        Contract(
            "crates/ran/tests/properties.rs",
            "ledger_conserves_through_admit_and_collapses_when_drained",
        ),
    ),
    (
        "crates/wireless/src/modulation.rs",
        "map_gray",
        Contract(
            "crates/wireless/tests/properties.rs",
            "translation_bridges_maps",
        ),
    ),
    (
        "crates/wireless/src/modulation.rs",
        "map_quamax",
        Contract(
            "crates/wireless/tests/properties.rs",
            "translation_bridges_maps",
        ),
    ),
    (
        "crates/wireless/src/modulation.rs",
        "demap_gray",
        Contract(
            "crates/wireless/tests/properties.rs",
            "slicer_robust_within_half_min_distance",
        ),
    ),
];

/// One `.rs` file, by its `/`-separated path from the repo root.
struct Source {
    path: String,
    text: String,
    words: HashSet<String>,
}

impl Source {
    fn under(&self, dir: &str) -> bool {
        self.path.starts_with(dir)
    }

    fn in_tests_dir(&self) -> bool {
        self.path.starts_with("tests/") || self.path.contains("/tests/")
    }
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `text` without its `pub use` statements: a re-export names a
/// function without calling it.
fn without_reexports(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_reexport = false;
    for line in text.lines() {
        in_reexport |= line.trim_start().starts_with("pub use ");
        if in_reexport {
            in_reexport = !line.contains(';');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Every identifier-shaped word of `text`.
fn words(text: &str) -> HashSet<String> {
    let bytes = text.as_bytes();
    let mut out = HashSet::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && is_word_byte(bytes[i]) {
                i += 1;
            }
            out.insert(text[start..i].to_string());
        } else {
            i += 1;
        }
    }
    out
}

/// `(name, line)` of every `pub fn` in `text`.
fn pub_fns(text: &str) -> Vec<(String, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for (at, _) in text.match_indices("pub fn") {
        if at > 0 && is_word_byte(bytes[at - 1]) {
            continue;
        }
        let mut i = at + "pub fn".len();
        let gap = i;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && is_word_byte(bytes[i]) {
            i += 1;
        }
        if i > start && start > gap {
            let line = text[..at].matches('\n').count() + 1;
            out.push((text[start..i].to_string(), line));
        }
    }
    out
}

/// Every `.rs` file under `dir`, skipping build output, reports and
/// hidden directories.
fn collect(root: &Path, dir: &Path, out: &mut Vec<Source>) {
    for entry in fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "results" && !name.starts_with('.') {
                collect(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path).expect("UTF-8 source");
            let rel = path.strip_prefix(root).unwrap();
            let rel: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            out.push(Source {
                path: rel.join("/"),
                words: words(&without_reexports(&text)),
                text,
            });
        }
    }
}

#[test]
fn every_pub_fn_has_a_product_caller_or_an_allowlisted_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    collect(root, root, &mut sources);
    let scanned = |s: &&Source| !s.under("vendor/") && !s.under("perfbench/");

    let mut unused = Vec::new();
    for def in sources.iter().filter(scanned).filter(|s| !s.in_tests_dir()) {
        for (name, line) in pub_fns(&def.text) {
            let used = sources
                .iter()
                .filter(scanned)
                .any(|s| s.path != def.path && !s.in_tests_dir() && s.words.contains(&name));
            if !used {
                unused.push((def.path.clone(), name, line));
            }
        }
    }

    let mut problems = Vec::new();
    for (path, name, line) in &unused {
        if !ALLOWED.iter().any(|(p, n, _)| p == path && n == name) {
            problems.push(format!(
                "{path}:{line} `{name}` has no product caller: \
                 make it private, put it under #[cfg(test)], delete it, \
                 or allowlist it with a reason"
            ));
        }
    }
    for (path, name, reason) in ALLOWED {
        if !unused.iter().any(|(p, n, _)| p == path && n == name) {
            problems.push(format!(
                "stale allowlist entry {path} `{name}`: \
                 it has a product caller now, or is gone"
            ));
        }
        let mentions = |file: &str| {
            sources
                .iter()
                .any(|s| s.path == file && s.words.contains(*name))
        };
        match reason {
            Perfbench => {
                let pinned = sources
                    .iter()
                    .any(|s| s.under("perfbench/") && s.words.contains(*name));
                if !pinned {
                    problems.push(format!("perfbench no longer calls `{name}`"));
                }
            }
            Contract(file, test) => {
                let defines_test = sources
                    .iter()
                    .any(|s| s.path == *file && s.text.contains(&format!("fn {test}(")));
                if !defines_test || !mentions(file) {
                    problems.push(format!(
                        "`{name}`'s contract test {file}::{test} is gone \
                         or no longer calls it"
                    ));
                }
            }
        }
    }
    assert!(
        problems.is_empty(),
        "{} public-surface problem(s):\n{}",
        problems.len(),
        problems.join("\n")
    );
}
