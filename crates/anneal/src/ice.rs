//! Intrinsic control errors (ICE) — the analog noise floor (§4).
//!
//! The DW2Q is an analog device: programmed Ising coefficients land on
//! the chip perturbed. The paper models ICE as Gaussian noise refreshed
//! on each anneal, with moments measured during the most delicate phase
//! of the run: `δf ≈ 0.008 ± 0.02` on fields and `δg ≈ −0.015 ± 0.025`
//! on couplers. ICE is the mechanism that punishes large `|J_F|` (the
//! renormalization squeezes problem coefficients into the noise) and
//! ties solution quality to the Ising energy gap (Figs. 5 and 12).

use crate::kernel::WindowStrips;
use quamax_ising::{CompiledProblem, IsingProblem};
use quamax_linalg::rng::NormalZiggurat;
use rand::Rng;

/// Gaussian perturbation model for programmed coefficients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IceModel {
    /// Mean of the field perturbation `⟨δf⟩`.
    pub field_mean: f64,
    /// Standard deviation of the field perturbation.
    pub field_std: f64,
    /// Mean of the coupler perturbation `⟨δg⟩`.
    pub coupler_mean: f64,
    /// Standard deviation of the coupler perturbation.
    pub coupler_std: f64,
}

impl IceModel {
    /// The paper's measured DW2Q moments (§4).
    pub fn dw2q() -> Self {
        IceModel {
            field_mean: 0.008,
            field_std: 0.02,
            coupler_mean: -0.015,
            coupler_std: 0.025,
        }
    }

    /// The workspace's calibrated default: the paper's moments scaled
    /// to 0.2×.
    ///
    /// Rationale: under this
    /// simulator's classical dynamics, the paper's absolute ICE moments
    /// extinguish the ground-state probability for N ≥ 28 problems
    /// entirely — quantum hardware evidently tolerates more control
    /// noise than schedule-matched Metropolis dynamics do. Scaling the
    /// noise floor to 0.2× lands the headline operating points on the
    /// paper's numbers (48×48 BPSK reaches BER 1e-6 in ~15 µs vs the
    /// paper's 10–20 µs) while keeping every ICE-driven mechanism
    /// (J_F squeeze, gap sensitivity) active. The `ablation_ice` bench
    /// sweeps this scale.
    pub fn calibrated() -> Self {
        IceModel::dw2q().scaled(0.2)
    }

    /// A model with every moment scaled by `k` (used by the ICE
    /// ablation to sweep the noise floor).
    pub fn scaled(&self, k: f64) -> Self {
        IceModel {
            field_mean: self.field_mean * k,
            field_std: self.field_std * k,
            coupler_mean: self.coupler_mean * k,
            coupler_std: self.coupler_std * k,
        }
    }

    /// An exactly-zero noise model (ideal device).
    pub fn none() -> Self {
        IceModel {
            field_mean: 0.0,
            field_std: 0.0,
            coupler_mean: 0.0,
            coupler_std: 0.0,
        }
    }

    /// `true` when this model adds no noise at all.
    pub fn is_zero(&self) -> bool {
        self.field_mean == 0.0
            && self.field_std == 0.0
            && self.coupler_mean == 0.0
            && self.coupler_std == 0.0
    }

    /// Returns a copy of `problem` with fresh ICE applied to every
    /// coefficient — one anneal's effective Hamiltonian. Deviates come
    /// from the ziggurat normal, fields by spin, then couplings in
    /// [`IsingProblem::couplings`] order.
    pub fn perturb<R: Rng + ?Sized>(&self, problem: &IsingProblem, rng: &mut R) -> IsingProblem {
        if self.is_zero() {
            return problem.clone();
        }
        let zig = NormalZiggurat::get();
        let n = problem.num_spins();
        let mut out = IsingProblem::new(n);
        for i in 0..n {
            let f = problem.linear(i);
            // Unused (zero-field) spins still sit on real hardware
            // qubits: they receive noise too.
            out.set_linear(i, f + self.field_noise(zig.sample(rng)));
        }
        for (i, j, g) in problem.couplings() {
            out.set_coupling(i, j, g + self.coupler_noise(zig.sample(rng)));
        }
        out
    }

    /// The field perturbation `μ_f + σ_f·z` for a standard deviate `z`.
    #[inline]
    fn field_noise(&self, z: f64) -> f64 {
        self.field_mean + self.field_std * z
    }

    /// The coupler perturbation `μ_g + σ_g·z` for a standard deviate `z`.
    #[inline]
    fn coupler_noise(&self, z: f64) -> f64 {
        self.coupler_mean + self.coupler_std * z
    }

    /// Refreezes one anneal's effective Hamiltonian into `scratch`:
    /// copies `base`'s coefficients (reusing the scratch allocation)
    /// and applies fresh ICE to every field and coupling.
    ///
    /// Noise draw order is fixed by the compiled layout — fields in
    /// spin order, then couplings in CSR `(i, j)` order, one ziggurat
    /// deviate each — so a given per-anneal RNG stream always produces
    /// the same effective Hamiltonian regardless of how the problem was
    /// built or which thread runs the anneal. This is the reference the
    /// annealer's window bind
    /// ([`ReplicaBatch::bind_window_ice`](crate::ReplicaBatch::bind_window_ice))
    /// matches.
    pub fn refreeze<R: Rng + ?Sized>(
        &self,
        base: &CompiledProblem,
        scratch: &mut CompiledProblem,
        rng: &mut R,
    ) {
        scratch.refreeze_from(base);
        if self.is_zero() {
            return;
        }
        let zig = NormalZiggurat::get();
        scratch.perturb_linear(|f| f + self.field_noise(zig.sample(rng)));
        scratch.perturb_couplings(|g| g + self.coupler_noise(zig.sample(rng)));
    }

    /// Refreezes a whole replica window straight into its coefficient
    /// strips: replica `r` gets `problems[r]` (all sharing the strips'
    /// CSR structure) under deviates drawn from `rngs[r]` alone, in
    /// [`IceModel::refreeze`]'s order and with its arithmetic, so every
    /// replica's strips hold exactly what `refreeze` + `bind_replica`
    /// would bind and every stream ends in the same state.
    ///
    /// Two passes. The first draws each replica's `n + m` deviates into
    /// `normals`, entry-major (`normals[e·W + r]`). The second walks
    /// the entries once — fields, then each coupler in CSR `i < j`
    /// order — writing each entry's `W`-wide strip (and the coupler
    /// twin's) in one contiguous store. A zero model draws nothing and
    /// binds the problems as they are.
    pub(crate) fn refreeze_window<R: Rng>(
        &self,
        problems: &[&CompiledProblem],
        strips: &mut WindowStrips,
        normals: &mut Vec<f64>,
        rngs: &mut [R],
    ) {
        let w = strips.width();
        assert_eq!(problems.len(), w, "one problem per replica");
        assert_eq!(rngs.len(), w, "one RNG stream per replica");
        if self.is_zero() {
            for (r, problem) in problems.iter().enumerate() {
                strips.copy_from(r, problem);
            }
            return;
        }
        let structure = problems[0];
        let n = structure.num_spins();
        let entries = n + structure.num_couplings();
        normals.resize(entries * w, 0.0);
        let zig = NormalZiggurat::get();
        for (r, rng) in rngs.iter_mut().enumerate() {
            for z in normals[r..].iter_mut().step_by(w) {
                *z = zig.sample(rng);
            }
        }
        let (field_z, coupler_z) = normals.split_at(n * w);
        for (i, z) in field_z.chunks_exact(w).enumerate() {
            for ((out, problem), &z) in strips.linear_strip(i).iter_mut().zip(problems).zip(z) {
                *out = problem.linear_terms()[i] + self.field_noise(z);
            }
        }
        let (neighbors, twins) = (structure.neighbors_flat(), structure.twins_flat());
        let mut coupler_z = coupler_z.chunks_exact(w);
        for i in 0..n {
            let (lo, hi) = structure.row_bounds(i);
            // Rows are sorted: the `j > i` half is a suffix.
            let upper = lo + neighbors[lo..hi].partition_point(|&j| j as usize <= i);
            for (k, &twin) in (upper..hi).zip(&twins[upper..hi]) {
                let z = coupler_z.next().expect("one deviate per coupler");
                let twin = twin as usize;
                let strip = strips.weight_strip(k);
                for ((out, problem), &z) in strip.iter_mut().zip(problems).zip(z) {
                    *out = problem.weights_flat()[k] + self.coupler_noise(z);
                }
                strips.copy_weight_strip(k, twin);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_problem() -> IsingProblem {
        let mut p = IsingProblem::new(5);
        for i in 0..5 {
            p.set_linear(i, 0.1 * i as f64);
            for j in (i + 1)..5 {
                p.set_coupling(i, j, -0.2 + 0.1 * (i + j) as f64);
            }
        }
        p
    }

    #[test]
    fn paper_moments() {
        let m = IceModel::dw2q();
        assert_eq!(m.field_mean, 0.008);
        assert_eq!(m.field_std, 0.02);
        assert_eq!(m.coupler_mean, -0.015);
        assert_eq!(m.coupler_std, 0.025);
    }

    #[test]
    fn zero_model_is_identity() {
        let p = sample_problem();
        let mut rng = StdRng::seed_from_u64(1);
        let q = IceModel::none().perturb(&p, &mut rng);
        assert_eq!(p, q);
    }

    #[test]
    fn perturbation_preserves_structure() {
        let p = sample_problem();
        let mut rng = StdRng::seed_from_u64(2);
        let q = IceModel::dw2q().perturb(&p, &mut rng);
        assert_eq!(q.num_spins(), p.num_spins());
        assert_eq!(q.num_couplings(), p.num_couplings());
        // Coefficients moved, but not far (5σ bound).
        for (i, j, g) in p.couplings() {
            let d = q.coupling(i, j) - g;
            assert!(d.abs() < 0.015 + 5.0 * 0.025, "δg={d}");
            assert!(d != 0.0, "coupling ({i},{j}) untouched");
        }
    }

    #[test]
    fn empirical_moments_match_model() {
        let p = sample_problem();
        let m = IceModel::dw2q();
        let mut rng = StdRng::seed_from_u64(3);
        let mut deltas = Vec::new();
        for _ in 0..2000 {
            let q = m.perturb(&p, &mut rng);
            for (i, j, g) in p.couplings() {
                deltas.push(q.coupling(i, j) - g);
            }
        }
        let n = deltas.len() as f64;
        let mean = deltas.iter().sum::<f64>() / n;
        let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n;
        assert!((mean - m.coupler_mean).abs() < 0.002, "mean={mean}");
        assert!(
            (var.sqrt() - m.coupler_std).abs() < 0.002,
            "std={}",
            var.sqrt()
        );
    }

    #[test]
    fn fresh_noise_each_call() {
        let p = sample_problem();
        let m = IceModel::dw2q();
        let mut rng = StdRng::seed_from_u64(4);
        let a = m.perturb(&p, &mut rng);
        let b = m.perturb(&p, &mut rng);
        assert_ne!(a, b, "successive anneals must see fresh ICE");
    }

    #[test]
    fn refreeze_perturbs_every_coefficient_symmetrically() {
        use quamax_ising::CompiledProblem;
        let p = sample_problem();
        let base = CompiledProblem::new(&p);
        let mut scratch = base.clone();
        let mut rng = StdRng::seed_from_u64(7);
        IceModel::dw2q().refreeze(&base, &mut scratch, &mut rng);
        assert_eq!(scratch.num_spins(), base.num_spins());
        assert_eq!(scratch.num_couplings(), base.num_couplings());
        for i in 0..base.num_spins() {
            assert_ne!(scratch.linear(i), base.linear(i), "field {i} untouched");
            let (idx, w) = scratch.row(i);
            let (_, w0) = base.row(i);
            for (k, (&j, &g)) in idx.iter().zip(w).enumerate() {
                assert_ne!(g, w0[k], "coupling ({i},{j}) untouched");
                // Symmetric: the reverse entry carries the same value.
                let (jidx, jw) = scratch.row(j as usize);
                let back = jidx.iter().position(|&b| b as usize == i).unwrap();
                assert_eq!(g, jw[back], "asymmetric ICE at ({i},{j})");
            }
        }
        // A zero model refreezes back to the base coefficients exactly.
        IceModel::none().refreeze(&base, &mut scratch, &mut rng);
        assert_eq!(scratch, base);
    }

    #[test]
    fn refreeze_draws_depend_only_on_stream() {
        use quamax_ising::CompiledProblem;
        // Two builds of the same problem in different insertion orders
        // refreeze identically under the same RNG stream: draw order is
        // a function of the compiled layout, not construction history.
        let mut a = IsingProblem::new(4);
        a.set_coupling(0, 3, 1.0);
        a.set_coupling(0, 1, -1.0);
        a.set_linear(2, 0.5);
        let mut b = IsingProblem::new(4);
        b.set_linear(2, 0.5);
        b.set_coupling(0, 1, -1.0);
        b.set_coupling(3, 0, 1.0);
        let (ca, cb) = (CompiledProblem::new(&a), CompiledProblem::new(&b));
        let mut out_a = ca.clone();
        let mut out_b = cb.clone();
        let m = IceModel::dw2q();
        m.refreeze(&ca, &mut out_a, &mut StdRng::seed_from_u64(9));
        m.refreeze(&cb, &mut out_b, &mut StdRng::seed_from_u64(9));
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn scaled_model() {
        let m = IceModel::dw2q().scaled(2.0);
        assert_eq!(m.coupler_std, 0.05);
        let z = IceModel::dw2q().scaled(0.0);
        assert!(z.is_zero());
    }
}
