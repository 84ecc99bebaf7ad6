//! The paper's evaluation as an oracle. Every registry entry's quick
//! preset runs in-process, and its report's JSON (the bytes `repro`
//! writes to `results/<name>.json`) must hash to the digest recorded
//! in [`DIGESTS`]. The paper's shapes that already hold at the quick
//! presets are asserted below; the others need the full presets, and
//! each entry's `shapes` doc names its full command.
//!
//! A change that moves a sampled value moves a digest. Re-record it
//! only with the reason, as for the annealer goldens.
//!
//! Run it with `cargo test --release -p quamax-bench --test
//! reproduction`.

use quamax_bench::repro::REGISTRY;
use quamax_bench::Report;
use serde_json::Value;
use std::sync::OnceLock;

/// `(entry, FNV-1a 64 of its quick report's JSON)`.
const DIGESTS: &[(&str, u64)] = &[
    ("fig4", 0x3208_d50a_f451_9d63),
    ("fig5", 0x16b3_b1dd_15ab_3536),
    ("fig6", 0xda21_3841_4dea_f23c),
    ("fig7", 0x6236_e8e9_73f6_2dca),
    ("fig8", 0xf740_f7ef_1eb0_d10d),
    ("fig9", 0xc8ed_26dc_ef72_dd87),
    ("fig10", 0x619d_0b56_b741_964f),
    ("fig11", 0xa768_af43_fea2_4f8e),
    ("fig12", 0xd4bf_4bdf_01e7_258b),
    ("fig13", 0xecfa_c5f2_221b_3ce1),
    ("fig14", 0xb0fe_d59e_0475_681a),
    ("fig15", 0x2ee0_6575_5b09_a8cd),
    ("table1", 0x28cd_25bc_4442_75fe),
    ("table2", 0x798a_b538_95af_7511),
    ("future_topologies", 0xbfe9_1425_1601_4a88),
    ("calibrate", 0xe9b6_b2a3_a995_6eae),
    ("ablation_backend", 0xd28f_aa2e_3d40_ca8b),
    ("ablation_csi", 0x9782_cf90_7967_6ea0),
    ("ablation_embedding", 0xf89f_4cbc_82c4_ee68),
    ("ablation_gray", 0xb17d_b6d3_8092_77ad),
    ("ablation_ice", 0x17d1_6660_163d_7539),
    ("ablation_reverse", 0xfba7_15cc_bcb6_dbc3),
    ("ablation_unembed", 0xfefd_fe48_1b5b_37f5),
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every entry's quick report, in registry order, run once per process.
fn reports() -> &'static [Report] {
    static REPORTS: OnceLock<Vec<Report>> = OnceLock::new();
    REPORTS.get_or_init(|| REGISTRY.iter().map(|e| (e.run)(&e.quick)).collect())
}

/// The rows of `name`'s quick report that hold `key`.
fn rows(name: &str, key: &str) -> Vec<&'static Value> {
    let report = reports()
        .iter()
        .find(|r| r.name == name)
        .expect("a registry entry");
    report
        .rows
        .iter()
        .filter(|r| r.get(key).is_some())
        .collect()
}

/// A number field; infinite values stay infinite.
fn num(row: &Value, key: &str) -> f64 {
    let value = row.get(key).and_then(Value::as_f64);
    value.unwrap_or_else(|| panic!("{key} is not a number in {row:?}"))
}

fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    row.get(key)
        .and_then(Value::as_str)
        .expect("a string field")
}

fn flag(row: &Value, key: &str) -> bool {
    row.get(key)
        .and_then(Value::as_bool)
        .expect("a boolean field")
}

/// Whether `values` never rises.
fn non_increasing(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] <= w[0])
}

#[test]
fn every_quick_report_matches_its_recorded_digest() {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    let recorded: Vec<&str> = DIGESTS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, recorded, "one digest per registry entry, in order");
    let moved: Vec<String> = (DIGESTS.iter().zip(reports()))
        .filter_map(|(&(name, want), report)| {
            let got = fnv1a(report.to_json().as_bytes());
            (got != want).then(|| format!("{name}: {got:#018x}, recorded {want:#018x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "quick reports moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn the_registry_is_well_formed() {
    for (i, entry) in REGISTRY.iter().enumerate() {
        assert!(
            REGISTRY[..i].iter().all(|e| e.name != entry.name),
            "{}",
            entry.name
        );
        let shared = ["anneals", "instances", "seed"];
        assert!(
            entry.reads.iter().all(|r| shared.contains(r)),
            "{}",
            entry.name
        );
        // A shape that needs the full preset names the full command.
        let full_command = format!("`repro {}`", entry.name);
        let needs_full = entry.shapes.contains("full preset");
        assert_eq!(
            needs_full,
            entry.shapes.contains(&full_command),
            "{}",
            entry.name
        );
    }
}

#[test]
fn table2_clique_fits_dw2q_exactly_up_to_64_variables() {
    let cells = rows("table2", "feasible_dw2q");
    assert_eq!(cells.len(), 16);
    for row in cells {
        let n = num(row, "logical");
        assert_eq!(
            num(row, "physical"),
            n * ((n / 4.0).ceil() + 1.0),
            "{row:?}"
        );
        assert_eq!(flag(row, "feasible_dw2q"), n <= 64.0, "{row:?}");
    }
    let users: Vec<f64> = (rows("table2", "topology").iter())
        .map(|r| num(r, "max_users"))
        .collect();
    assert_eq!(users, [180.0, 90.0, 45.0, 30.0], "P16 users per modulation");
}

#[test]
fn pegasus_p16_embeds_up_to_its_180_variable_clique() {
    let classes = rows("future_topologies", "class");
    for row in &classes {
        assert_eq!(
            flag(row, "p16_fits"),
            num(row, "logical") <= 180.0,
            "{row:?}"
        );
    }
    for row in rows("future_topologies", "c16_fits") {
        assert_eq!(
            flag(row, "c16_fits"),
            num(row, "logical") <= 64.0,
            "{row:?}"
        );
    }
    let fits = |class| {
        flag(
            classes.iter().find(|r| text(r, "class") == class).unwrap(),
            "p16_fits",
        )
    };
    for class in ["180x180 BPSK", "90x90 QPSK", "45x45 16-QAM"] {
        assert!(fits(class), "{class}");
    }
    assert!(!fits("175x175 QPSK"), "the paper's 175-user QPSK forecast");
}

#[test]
fn fig4_p0_falls_as_the_modulation_order_rises() {
    let classes = rows("fig4", "channel_use");
    for channel_use in [0.0, 1.0] {
        let p0: Vec<f64> = (classes.iter())
            .filter(|r| num(r, "channel_use") == channel_use)
            .map(|r| num(r, "p0"))
            .collect();
        assert_eq!(p0.len(), 3);
        assert!(p0[0] > p0[1] && p0[1] > p0[2], "use {channel_use}: {p0:?}");
    }
}

#[test]
fn fig6_best_tts_is_at_one_microsecond() {
    for users in [8.0, 12.0, 14.0, 16.0, 18.0] {
        let best: Vec<f64> = (rows("fig6", "best_tts_median_us").iter())
            .filter(|r| num(r, "users") == users)
            .map(|r| num(r, "best_tts_median_us"))
            .collect();
        assert!(
            best[0] < best[1] && best[0] < best[2],
            "{users} users: {best:?}"
        );
    }
}

#[test]
fn fig7_one_microsecond_pause_wins() {
    let best: Vec<f64> = rows("fig7", "best_sp")
        .iter()
        .map(|r| num(r, "best_tts_median_us"))
        .collect();
    assert!(best[0] < best[1] && best[0] < best[2], "{best:?}");
}

#[test]
fn fig10_ttb_grows_with_users_within_each_modulation() {
    let classes = rows("fig10", "class");
    for modulation in ["BPSK", "QPSK", "16-QAM"] {
        let medians: Vec<f64> = (classes.iter())
            .filter(|r| text(r, "class").ends_with(&format!(" {modulation}")))
            .map(|r| num(r, "median"))
            .collect();
        assert!(
            medians.windows(2).all(|w| w[0] <= w[1]),
            "{modulation}: {medians:?}"
        );
    }
}

#[test]
fn fig13_opt_reaches_1e6_within_100_us_at_every_snr() {
    let right = (rows("fig13", "panel").into_iter()).filter(|r| text(r, "panel") == "right");
    for row in right {
        assert!(num(row, "opt_ttb_median_us") <= 100.0, "{row:?}");
    }
}

#[test]
fn fig14_quamax_matches_zero_forcing_10_to_1000x_faster() {
    let classes = rows("fig14", "speedup");
    let (erred, clean): (Vec<_>, Vec<_>) = classes.iter().partition(|r| num(r, "zf_errors") > 0.0);
    assert!(!erred.is_empty(), "no class measured a ZF BER");
    for row in erred {
        let speedup = num(row, "speedup");
        assert!((10.0..=1_000.0).contains(&speedup), "{row:?}");
    }
    // Without a ZF error there is no BER to match, so no speedup.
    for row in clean {
        assert!(row.get("speedup").is_some_and(Value::is_null), "{row:?}");
        assert!(row
            .get("quamax_time_to_zf_ber_us")
            .is_some_and(Value::is_null));
    }
}

#[test]
fn fig15_bpsk_reaches_1e6_within_two_amortized_microseconds() {
    let bpsk = rows("fig15", "modulation")
        .into_iter()
        .find(|r| text(r, "modulation") == "BPSK");
    assert!(num(bpsk.unwrap(), "ttb_median_us") <= 2.0);
}

#[test]
fn table1_complexity_columns_grow() {
    let columns: Vec<f64> = rows("table1", "column")
        .iter()
        .map(|r| num(r, "mean_visited_nodes"))
        .collect();
    assert!(
        columns[0] < columns[1] && columns[1] < columns[2],
        "{columns:?}"
    );
}

#[test]
fn calibrate_full_ice_moments_extinguish_p0_from_28_variables() {
    for row in rows("calibrate", "p0_mean") {
        if num(row, "logical") >= 28.0 {
            assert_eq!(num(row, "p0_mean"), 0.0, "{row:?}");
        }
    }
    // The J_F, pause and anneal-time probes run 36- and 48-variable
    // problems.
    for probe in ["improved_range", "schedule", "ta_us"] {
        for row in rows("calibrate", probe) {
            assert_eq!(num(row, "p0"), 0.0, "{row:?}");
        }
    }
}

#[test]
fn ablation_backend_p0_falls_with_chain_strength_under_sa_and_sqa() {
    let settings = rows("ablation_backend", "setting");
    for chunk in settings.chunks(3) {
        let p0: Vec<f64> = chunk.iter().map(|r| num(r, "p0_median")).collect();
        assert!(non_increasing(&p0), "{chunk:?}");
    }
}

#[test]
fn ablation_embedding_costs_ground_state_probability() {
    for row in rows("ablation_embedding", "overhead_factor") {
        assert!(num(row, "overhead_factor") >= 1.0, "{row:?}");
    }
}

#[test]
fn ablation_gray_skipping_the_translation_raises_the_ber() {
    let row = rows("ablation_gray", "penalty_factor")[0];
    assert!(num(row, "ber_without_translation") > num(row, "ber_with_translation"));
}

#[test]
fn ablation_ice_p0_falls_with_the_ice_scale_and_vanishes_at_the_paper_moments() {
    for class in ["48x48 BPSK", "18x18 QPSK"] {
        let sweep: Vec<&Value> = (rows("ablation_ice", "ice_scale").into_iter())
            .filter(|r| text(r, "class") == class)
            .collect();
        let p0: Vec<f64> = sweep.iter().map(|r| num(r, "p0_median")).collect();
        assert!(non_increasing(&p0), "{class}: {p0:?}");
        let at_paper = sweep.iter().find(|r| num(r, "ice_scale") == 1.0).unwrap();
        assert_eq!(num(at_paper, "p0_median"), 0.0, "{class}");
    }
}

#[test]
fn ablation_unembed_chain_breaks_fall_as_chains_stiffen() {
    let breaks: Vec<f64> = (rows("ablation_unembed", "chain_break_rate").iter())
        .map(|r| num(r, "chain_break_rate"))
        .collect();
    assert!(non_increasing(&breaks), "{breaks:?}");
}
