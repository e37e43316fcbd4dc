//! Accuracy of the exact 3-D stability oracle against closed forms, on
//! regions small enough that an angle-sum (Girard) area loses its digits.

use srank_geom::hyperplane::HalfSpace;
use srank_geom::solid_angle::exact_stability_3d_of;
use std::f64::consts::{FRAC_PI_2, PI};

fn relative_error(got: f64, want: f64) -> f64 {
    ((got - want) / want).abs()
}

/// A wedge between two planes through the z axis, at azimuths `θ0` and
/// `θ0 + α`, covers `α` of the orthant's `π/2` steradians.
#[test]
fn thin_wedges_match_their_dihedral_angle() {
    let theta0: f64 = 0.3;
    for alpha in [1e-2f64, 1e-4, 1e-6, 1e-8] {
        let theta1 = theta0 + alpha;
        let exact = (theta1 - theta0) / FRAC_PI_2; // the representable α
        let s = exact_stability_3d_of(&[
            HalfSpace::new(vec![-theta0.sin(), theta0.cos(), 0.0]),
            HalfSpace::new(vec![theta1.sin(), -theta1.cos(), 0.0]),
        ])
        .unwrap();
        let err = relative_error(s, exact);
        assert!(
            err <= 1e-6,
            "α = {alpha:e}: {s:e} vs {exact:e} (rel {err:e})"
        );
    }
}

/// Small equilateral triangles of angular circumradius `r` centred on
/// `(1, 1, 1)/√3`, against L'Huilier's formula on the analytic vertices.
#[test]
fn small_triangles_match_lhuilier() {
    let c = [1.0 / 3f64.sqrt(); 3];
    let t1 = [1.0 / 2f64.sqrt(), -1.0 / 2f64.sqrt(), 0.0];
    let t2 = cross(&c, &t1);
    let dir = |phi: f64| -> [f64; 3] { [0, 1, 2].map(|j| phi.cos() * t1[j] + phi.sin() * t2[j]) };
    for r in [1e-2f64, 1e-3, 1e-4, 1e-5] {
        // The plane through vertices k and k+1 (v = cos r·c + sin r·p_k),
        // expanded so that no O(r) vector is formed by cancellation:
        // v_k × v_{k+1} ∝ cos r·c × (p_{k+1} − p_k) + sin r·sin(2π/3)·c.
        let halfspaces: Vec<HalfSpace> = (0..3)
            .map(|k| {
                let (p, q) = (
                    dir(2.0 * PI * k as f64 / 3.0),
                    dir(2.0 * PI * (k + 1) as f64 / 3.0),
                );
                let side = cross(&c, &[q[0] - p[0], q[1] - p[1], q[2] - p[2]]);
                let lift = r.sin() * (2.0 * PI / 3.0).sin();
                HalfSpace::new((0..3).map(|j| r.cos() * side[j] + lift * c[j]).collect())
            })
            .collect();
        // Side: the chord between vertices is sin r·√3.
        let a = 2.0 * (3f64.sqrt() * r.sin() / 2.0).asin();
        let excess = 4.0
            * ((3.0 * a / 4.0).tan() * (a / 4.0).tan().powi(3))
                .sqrt()
                .atan();
        let exact = excess / FRAC_PI_2;
        let s = exact_stability_3d_of(&halfspaces).unwrap();
        // Tighter than the 1e-6 the oracle promises: a triple product taken
        // over the vertices themselves rather than the fan's edge vectors is
        // off by about 1e-7 at r = 1e-5.
        let err = relative_error(s, exact);
        assert!(err <= 1e-8, "r = {r:e}: {s:e} vs {exact:e} (rel {err:e})");
    }
}

fn cross(a: &[f64; 3], b: &[f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}
