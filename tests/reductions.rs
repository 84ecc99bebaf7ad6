//! The per-interval reductions are bit for bit the formulas they
//! replace:
//!
//! * `CMatrix::gram` (upper triangle, mirrored) and `CMatrix::gram_real`
//!   against the full product `hermitian().mul_mat(self)`, re and im,
//!   over rectangular shapes with exact zeros, pure-real and
//!   pure-imaginary entries;
//! * the fields-only `MlReduction::reduce`, one `MlReduction` reused
//!   across received vectors, against `ising_from_ml` and against the
//!   closed forms written out pair by pair with upserts, as Eqs. 6–8 and
//!   13–14 state them: its fields over the shared couplings convert to
//!   the same problem, with the same offset bits, and the view prices
//!   random spins with the same energy bits.

use quamax::prelude::*;
use quamax_core::{ising_from_ml, MlReduction};
use quamax_ising::{IsingProblem, IsingView};
use rand::Rng as _;
use std::sync::Arc;

/// A random entry: one in five exactly zero, others often pure real or
/// pure imaginary, so Gram parts cancel to (signed) zeros.
fn entry(rng: &mut Rng) -> Complex {
    let x = rng.random_range(-2.0..2.0);
    let y = rng.random_range(-2.0..2.0);
    match rng.random_range(0..10u8) {
        0 | 1 => Complex::ZERO,
        2 => Complex::new(-0.0, 0.0),
        3 | 4 => Complex::new(x, 0.0),
        5 => Complex::new(0.0, y),
        _ => Complex::new(x, y),
    }
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> CMatrix {
    CMatrix::from_fn(rows, cols, |_, _| entry(rng))
}

/// The Gram as the full product computes it — the oracle.
fn product_gram(h: &CMatrix) -> CMatrix {
    h.hermitian().mul_mat(h)
}

#[test]
fn gram_equals_the_full_product_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(0x6ea7);
    let mut shapes: Vec<(usize, usize)> = (0..60)
        .map(|_| (rng.random_range(1..9), rng.random_range(1..9)))
        .collect();
    shapes.extend([(48, 48), (5, 12), (12, 5)]);
    for (rows, cols) in shapes {
        let h = random_matrix(rows, cols, &mut rng);
        // A real channel too: every imaginary Gram part is a zero.
        let real = CMatrix::from_fn(rows, cols, |r, c| Complex::new(h[(r, c)].re, 0.0));
        for h in [h, real] {
            let expect = product_gram(&h);
            let gram = h.gram();
            let gram_real = h.gram_real();
            for r in 0..cols {
                for c in 0..cols {
                    let (e, g) = (expect[(r, c)], gram[(r, c)]);
                    assert_eq!(
                        (g.re.to_bits(), g.im.to_bits()),
                        (e.re.to_bits(), e.im.to_bits()),
                        "{rows}x{cols} gram ({r}, {c}): {g:?} vs {e:?}"
                    );
                    assert_eq!(
                        gram_real[r * cols + c].to_bits(),
                        e.re.to_bits(),
                        "{rows}x{cols} gram_real ({r}, {c})"
                    );
                }
            }
        }
    }
}

/// Eqs. 6–8 and 13–14 term by term, through `set_coupling` upserts, on
/// the product Gram and matched filter.
fn closed_form(h: &CMatrix, y: &CVector, m: Modulation) -> (IsingProblem, f64) {
    let gram = product_gram(h);
    let h_y = h.hermitian().mul_vec(y);
    let nt = h.cols();
    match m {
        Modulation::Bpsk => {
            let mut p = IsingProblem::new(nt);
            for i in 0..nt {
                p.set_linear(i, -2.0 * h_y[i].re);
                for j in (i + 1)..nt {
                    p.set_coupling(i, j, 2.0 * gram[(i, j)].re);
                }
            }
            let offset = y.norm_sqr() + (0..nt).map(|i| gram[(i, i)].re).sum::<f64>();
            (p, offset)
        }
        Modulation::Qpsk => {
            let n = 2 * nt;
            let mut p = IsingProblem::new(n);
            for i in 0..n {
                let user = i / 2;
                let f = if i % 2 == 0 {
                    h_y[user].re
                } else {
                    h_y[user].im
                };
                p.set_linear(i, -2.0 * f);
                for j in (i + 1)..n {
                    let user_j = j / 2;
                    if user_j == user {
                        continue;
                    }
                    let hh = gram[(user, user_j)];
                    let g = match (i % 2, j % 2) {
                        (0, 0) | (1, 1) => 2.0 * hh.re,
                        (0, 1) => -2.0 * hh.im,
                        _ => 2.0 * hh.im,
                    };
                    p.set_coupling(i, j, g);
                }
            }
            let offset = y.norm_sqr() + 2.0 * (0..nt).map(|i| gram[(i, i)].re).sum::<f64>();
            (p, offset)
        }
        Modulation::Qam16 => {
            let n = 4 * nt;
            let mut p = IsingProblem::new(n);
            let weight = |pos: usize| if pos.is_multiple_of(2) { 4.0 } else { 2.0 };
            for i in 0..n {
                let (user, pos) = (i / 4, i % 4);
                let f = if pos >= 2 {
                    -weight(pos) * h_y[user].im
                } else {
                    -weight(pos) * h_y[user].re
                };
                p.set_linear(i, f);
                for j in (i + 1)..n {
                    let (user_j, pos_j) = (j / 4, j % 4);
                    let w = weight(pos) * weight(pos_j) / 2.0;
                    let hh = gram[(user, user_j)];
                    let g = match (pos >= 2, pos_j >= 2) {
                        (false, false) | (true, true) => w * hh.re,
                        (false, true) => -w * hh.im,
                        (true, false) => w * hh.im,
                    };
                    if g != 0.0 {
                        p.set_coupling(i, j, g);
                    }
                }
            }
            let e_ising = p.energy(&vec![-1; n]);
            let v = CVector::from_fn(nt, |_| Complex::new(-3.0, -3.0));
            let ml = (y - &h.mul_vec(&v)).norm_sqr();
            (p, ml - e_ising)
        }
        Modulation::Qam64 => unreachable!("no closed form"),
    }
}

#[test]
fn fields_only_reduction_equals_the_closed_forms() {
    let mut rng = Rng::seed_from_u64(0xf1e1d);
    for (m, nr, nt) in [
        (Modulation::Bpsk, 10, 7),
        (Modulation::Bpsk, 6, 6),
        (Modulation::Qpsk, 8, 5),
        (Modulation::Qam16, 6, 3),
        (Modulation::Qam64, 3, 2),
    ] {
        for zeros in [false, true] {
            let h = if zeros {
                random_matrix(nr, nt, &mut rng)
            } else {
                rayleigh(nr, nt, &mut rng)
            };
            let reduction = MlReduction::new(&h, m);
            for k in 0..4 {
                let y = CVector::from_fn(nr, |_| entry(&mut rng));
                let what = format!("{} {nr}x{nt} zeros={zeros} y#{k}", m.name());
                let (fields, offset) = reduction.reduce(&y);
                let view = IsingView::new(Arc::clone(reduction.couplings()), fields);
                let p = view.to_ising();
                let mut oracles = vec![ising_from_ml(&h, &y, m)];
                if m != Modulation::Qam64 {
                    oracles.push(closed_form(&h, &y, m));
                }
                for (q, q_offset) in &oracles {
                    assert_eq!(&p, q, "{what}: problem");
                    assert_eq!(offset.to_bits(), q_offset.to_bits(), "{what}: offset");
                    for _ in 0..8 {
                        let spins: Vec<i8> = (0..p.num_spins())
                            .map(|_| if rng.random_bool(0.5) { 1 } else { -1 })
                            .collect();
                        assert_eq!(
                            view.energy(&spins).to_bits(),
                            q.energy(&spins).to_bits(),
                            "{what}: energy"
                        );
                    }
                }
            }
        }
    }
}

fn rayleigh(nr: usize, nt: usize, rng: &mut Rng) -> CMatrix {
    quamax_wireless::rayleigh_channel(nr, nt, rng)
}
