//! Paper-era processing-time models for the classical baselines.
//!
//! The paper places classical detectors on Fig. 14's time axis using
//! published numbers, not re-measurement: zero-forcing times are
//! "inferred from processing time using a single core in BigStation"
//! and the Sphere Decoder's floor is "a few hundreds of µs" at Fig. 14
//! sizes (§5.4). We mirror that methodology with two documented cost
//! models:
//!
//! * **ZF** — FLOP count of the channel inversion plus per-vector
//!   filtering, divided by a BigStation-era sustained single-core rate
//!   (10 GFLOP/s, a 2013 Xeon core on complex kernels);
//! * **Sphere Decoder** — visited nodes × per-node cost (100 ns, a
//!   Skylake-class core doing one level of interference cancellation,
//!   slicing and a compare per node).
//!
//! These constants are *calibration anchors*, not measurements of this
//! repository's Rust implementations (Criterion benches measure those
//! separately).

/// Sustained single-core floating-point rate assumed for the ZF model
/// (FLOP/s).
pub const SUSTAINED_FLOPS: f64 = 10.0e9;

/// Wall-clock cost per visited sphere-decoder tree node (seconds).
pub const SPHERE_NODE_SECONDS: f64 = 100e-9;

/// Real FLOPs of one complex multiply-accumulate.
const CMAC_FLOPS: f64 = 8.0;

/// FLOPs to compute the ZF filter for one `nr × nt` channel:
/// Gram matrix (`nr·nt²` cmacs), Cholesky-style factorization
/// (`nt³/3`), and two triangular solves per column to form the
/// pseudo-inverse (`nt³`).
fn zf_filter_flops(nr: usize, nt: usize) -> f64 {
    let (nr, nt) = (nr as f64, nt as f64);
    CMAC_FLOPS * (nr * nt * nt + nt * nt * nt / 3.0 + nt * nt * nt)
}

/// FLOPs to apply the ZF filter to one received vector (`nt·nr` cmacs).
fn zf_apply_flops(nr: usize, nt: usize) -> f64 {
    CMAC_FLOPS * (nr as f64) * (nt as f64)
}

/// Single-core ZF processing time (µs) for one channel use: filter
/// formation amortized over `vectors_per_channel` received vectors
/// (the channel stays valid for a coherence block), plus per-vector
/// filtering.
pub fn zf_time_us(nr: usize, nt: usize, vectors_per_channel: usize) -> f64 {
    assert!(
        vectors_per_channel > 0,
        "need at least one vector per channel use"
    );
    let per_vector = zf_filter_flops(nr, nt) / vectors_per_channel as f64 + zf_apply_flops(nr, nt);
    per_vector / SUSTAINED_FLOPS * 1e6
}

/// Sphere-decoder processing time (µs) for a given visited-node count.
pub fn sphere_time_us(visited_nodes: u64) -> f64 {
    visited_nodes as f64 * SPHERE_NODE_SECONDS * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_nodes_imply_paper_scale_times() {
        // §5.4: "processing time cannot fall below a few hundreds of µs"
        // for the ~1,900-node problems of Table 1's last row.
        let t = sphere_time_us(1_900);
        assert!((100.0..500.0).contains(&t), "t={t} µs");
        // …and the 40-node problems are a few µs.
        assert!(sphere_time_us(40) < 10.0);
    }

    #[test]
    fn zf_time_grows_cubically_in_users() {
        let t12 = zf_time_us(12, 12, 1);
        let t48 = zf_time_us(48, 48, 1);
        let ratio = t48 / t12;
        // 4× the size → ≈ 64× the inversion work (within a factor).
        assert!((32.0..128.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn fig14_zf_times_are_paper_scale() {
        // Fig. 14's ZF points (36–60 users, single core, one-shot
        // inversion): tens to hundreds of µs — the regime QuAMax beats
        // by 10–1000×.
        for users in [36usize, 48, 60] {
            let t = zf_time_us(users, users, 1);
            assert!((20.0..2_000.0).contains(&t), "users={users}: {t} µs");
        }
    }

    #[test]
    fn amortization_reduces_per_vector_cost() {
        let once = zf_time_us(48, 48, 1);
        let amortized = zf_time_us(48, 48, 50);
        assert!(amortized < once / 10.0, "{amortized} vs {once}");
        // But never below the pure filtering cost.
        let floor = zf_apply_flops(48, 48) / SUSTAINED_FLOPS * 1e6;
        assert!(amortized >= floor);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn zero_vectors_panics() {
        let _ = zf_time_us(4, 4, 0);
    }
}
