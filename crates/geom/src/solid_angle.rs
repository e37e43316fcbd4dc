//! Exact spherical areas of 3-D cones — an exact stability oracle for
//! `d = 3`, where a ranking region on the unit sphere is a *convex spherical
//! polygon* (the paper samples because volume is #P-hard in general). It is
//! a feature and the ground truth for the sampling oracle.
//!
//! The polygon starts as the triangle of three independent half-spaces (the
//! orthant's `(e1, e2, e3)` for a stability query) and is clipped by each
//! half-space `n̂·x ≥ 0` in turn, Sutherland–Hodgman style: vertices with
//! `n̂·v ≥ −TOL` stay, and an edge crossing from `> TOL` to `< −TOL` gains
//! its normalized chord point (edges stay shorter than π, so the chord
//! crosses where the arc does). A plane every vertex satisfies costs one
//! pass, so `m` planes cost O(m·h) for `h` vertices — on DoT ranking
//! regions `m ≈ n` but `h ≈ 5`. The area is a fan from vertex 0 of
//! Van Oosterom–Strackee triangles, `2·atan2(a·(b×c), 1 + a·b + b·c + c·a)`,
//! with the triple product over the edges `b − a`, `c − a` to keep its
//! relative precision on tiny triangles: against closed forms (wedges down
//! to 1e-8 rad wide, triangles down to radius 1e-5 rad) the relative error
//! measured at most 4e-10. Regions thinner than `TOL` collapse to zero.

use crate::hyperplane::HalfSpace;
use crate::region::ConeRegion;

/// Slack within which a vertex counts as on a plane (closed constraints).
const TOL: f64 = 1e-9;

type V3 = [f64; 3];

/// Area of the unit-sphere patch `{x ∈ S² : n·x ≥ 0 for every normal n}`
/// for a set of half-space normals in R³.
///
/// Returns 0 for empty or measure-zero patches; `None` when the input is not
/// 3-D or has fewer than three linearly independent normals (a hemisphere or
/// lune), which cannot arise in orthant-clipped queries.
pub fn spherical_patch_area(normals: &[Vec<f64>]) -> Option<f64> {
    spherical_patch(normals.iter().map(Vec::as_slice)).map(|poly| fan_area(&poly))
}

/// The vertices of [`spherical_patch_area`]'s patch in boundary order: the
/// triangle of the first three linearly independent normals clipped by every
/// normal; empty if the patch has no interior.
pub fn spherical_patch<'a>(normals: impl IntoIterator<Item = &'a [f64]>) -> Option<Vec<[f64; 3]>> {
    let mut dirs = Vec::new();
    for n in normals {
        let n = <V3>::try_from(n).ok()?;
        dirs.extend((dot(&n, &n).sqrt() > f64::EPSILON).then(|| unit(n)));
    }
    let mut poly = seed_triangle(&dirs)?;
    dirs.iter().for_each(|n| clip(&mut poly, n));
    Some(poly)
}

/// The triangle `{x : n_i·x ≥ 0, i = 1..3}` of the first three linearly
/// independent unit normals: its vertices are the dual basis, `n_j × n_k`
/// oriented toward `n_i`.
fn seed_triangle(dirs: &[V3]) -> Option<Vec<V3>> {
    let a = *dirs.first()?;
    let b = *dirs
        .iter()
        .find(|b| cross(&a, b).iter().any(|x| x.abs() > TOL))?;
    let c = *dirs.iter().find(|c| dot(c, &cross(&a, &b)).abs() > TOL)?;
    let det = dot(&a, &cross(&b, &c)).signum();
    let vertex = |p: &V3, q: &V3| unit(cross(p, q).map(|x| x * det));
    Some(vec![vertex(&b, &c), vertex(&c, &a), vertex(&a, &b)])
}

/// Clips the polygon by `n·x ≥ 0`, leaving it untouched when every vertex
/// already satisfies the plane and emptying it when fewer than three remain.
fn clip(poly: &mut Vec<V3>, n: &V3) {
    if poly.iter().all(|v| dot(n, v) >= -TOL) {
        return;
    }
    let k = poly.len();
    let mut out = Vec::with_capacity(k + 1);
    for i in 0..k {
        let (a, b) = (poly[i], poly[(i + 1) % k]);
        let (sa, sb) = (dot(n, &a), dot(n, &b));
        if sa >= -TOL {
            out.push(a);
        }
        if (sa > TOL && sb < -TOL) || (sa < -TOL && sb > TOL) {
            let t = sa / (sa - sb);
            out.push(unit([0, 1, 2].map(|j| a[j] + t * (b[j] - a[j]))));
        }
    }
    if out.len() < 3 {
        out.clear();
    }
    *poly = out;
}

/// Solid angle of a convex spherical polygon: a fan of Van Oosterom–Strackee
/// triangles from vertex 0. Zero for fewer than three vertices.
fn fan_area(poly: &[V3]) -> f64 {
    let Some(a) = poly.first() else { return 0.0 };
    let signed: f64 = poly[1..]
        .windows(2)
        .map(|w| {
            let (b, c) = (&w[0], &w[1]);
            let edge = |v: &V3| [v[0] - a[0], v[1] - a[1], v[2] - a[2]];
            let triple = dot(a, &cross(&edge(b), &edge(c)));
            2.0 * triple.atan2(1.0 + dot(a, b) + dot(b, c) + dot(c, a))
        })
        .sum();
    signed.abs()
}

fn dot(a: &V3, b: &V3) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn cross(a: &V3, b: &V3) -> V3 {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn unit(a: V3) -> V3 {
    let len = dot(&a, &a).sqrt();
    a.map(|x| x / len)
}

/// Exact stability of a 3-D ranking region within the first orthant:
/// `area(region ∩ orthant ∩ S²) / area(orthant ∩ S²)`.
///
/// Returns `None` unless the region is 3-dimensional.
pub fn exact_stability_3d(region: &ConeRegion) -> Option<f64> {
    if region.dim() != 3 {
        return None;
    }
    // The orthant's normals come first, so they seed the polygon.
    const ORTHANT: [V3; 3] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
    let normals = ORTHANT
        .iter()
        .map(|n| &n[..])
        .chain(region.halfspaces().iter().map(HalfSpace::coeffs));
    let area = fan_area(&spherical_patch(normals)?);
    Some(area / (std::f64::consts::PI / 2.0)) // orthant: 4π / 8
}

/// Convenience: exact 3-D stability from raw half-spaces.
pub fn exact_stability_3d_of(halfspaces: &[HalfSpace]) -> Option<f64> {
    let region = ConeRegion::from_halfspaces(3, halfspaces.to_vec());
    exact_stability_3d(&region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn orthant_area_is_one_eighth_of_sphere() {
        let area = spherical_patch_area(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        assert!((area - PI / 2.0).abs() < 1e-9, "area = {area}");
    }

    #[test]
    fn full_orthant_region_has_stability_one() {
        let region = ConeRegion::full(3);
        let s = exact_stability_3d(&region).unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn half_orthant_is_one_half() {
        let region = ConeRegion::from_halfspaces(3, vec![HalfSpace::new(vec![1.0, -1.0, 0.0])]);
        let s = exact_stability_3d(&region).unwrap();
        assert!((s - 0.5).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn coordinate_ordering_is_one_sixth() {
        // {w1 > w2 > w3}: one of the 3! symmetric orderings.
        let region = ConeRegion::from_halfspaces(
            3,
            vec![
                HalfSpace::new(vec![1.0, -1.0, 0.0]),
                HalfSpace::new(vec![0.0, 1.0, -1.0]),
            ],
        );
        let s = exact_stability_3d(&region).unwrap();
        assert!((s - 1.0 / 6.0).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn all_six_orderings_partition_the_orthant() {
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut total = 0.0;
        for p in perms {
            let mut hs = Vec::new();
            for w in p.windows(2) {
                let mut coeffs = vec![0.0; 3];
                coeffs[w[0]] = 1.0;
                coeffs[w[1]] = -1.0;
                hs.push(HalfSpace::new(coeffs));
            }
            let s = exact_stability_3d_of(&hs).unwrap();
            assert!((s - 1.0 / 6.0).abs() < 1e-9);
            total += s;
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_region_has_zero_area() {
        let s = exact_stability_3d_of(&[
            HalfSpace::new(vec![1.0, -1.0, 0.0]),
            HalfSpace::new(vec![-1.0, 1.0, 0.0]),
        ])
        .unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn region_outside_orthant_is_zero() {
        // Requires w1 < 0: impossible in the orthant.
        let s = exact_stability_3d_of(&[HalfSpace::new(vec![-1.0, 0.0, 0.0])]).unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn narrow_wedge_has_small_positive_area() {
        // w1 > w2 > 0.99·w1: a thin wedge.
        let s = exact_stability_3d_of(&[
            HalfSpace::new(vec![1.0, -1.0, 0.0]),
            HalfSpace::new(vec![-0.99, 1.0, 0.0]),
        ])
        .unwrap();
        assert!(s > 0.0 && s < 0.01, "s = {s}");
    }

    #[test]
    fn nested_regions_are_monotone() {
        let outer = exact_stability_3d_of(&[HalfSpace::new(vec![1.0, -1.0, 0.0])]).unwrap();
        let inner = exact_stability_3d_of(&[
            HalfSpace::new(vec![1.0, -1.0, 0.0]),
            HalfSpace::new(vec![0.0, 1.0, -1.0]),
        ])
        .unwrap();
        assert!(inner < outer);
    }

    #[test]
    fn redundant_constraints_change_nothing() {
        let base = exact_stability_3d_of(&[HalfSpace::new(vec![1.0, -1.0, 0.0])]).unwrap();
        let redundant = exact_stability_3d_of(&[
            HalfSpace::new(vec![1.0, -1.0, 0.0]),
            HalfSpace::new(vec![2.0, -2.0, 0.0]),
            HalfSpace::new(vec![1.0, 0.0, 0.0]), // orthant repeat
        ])
        .unwrap();
        assert!((base - redundant).abs() < 1e-9);
    }

    #[test]
    fn non_3d_inputs_rejected() {
        assert!(exact_stability_3d(&ConeRegion::full(2)).is_none());
        assert!(spherical_patch_area(&[vec![1.0, 0.0]]).is_none());
    }

    /// Exact areas agree with a fine Monte-Carlo estimate on random cones.
    #[test]
    fn matches_monte_carlo_on_random_cones() {
        let mut state = 0xABCDu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
        };
        for trial in 0..10 {
            let hs: Vec<HalfSpace> = (0..3)
                .map(|_| HalfSpace::new(vec![next(), next(), next()]))
                .collect();
            let exact = exact_stability_3d_of(&hs).unwrap();
            // MC with a deterministic low-discrepancy-ish grid over the
            // orthant: sample directions from a fine lattice of angles with
            // area weighting sin(φ).
            let region = ConeRegion::from_halfspaces(3, hs);
            let steps = 400;
            let mut inside = 0.0;
            let mut total = 0.0;
            for a in 0..steps {
                let theta = (a as f64 + 0.5) / steps as f64 * (PI / 2.0);
                for b in 0..steps {
                    let phi = (b as f64 + 0.5) / steps as f64 * (PI / 2.0);
                    let w = [phi.sin() * theta.cos(), phi.sin() * theta.sin(), phi.cos()];
                    let weight = phi.sin();
                    total += weight;
                    if region.contains_with_tol(&w, 0.0) {
                        inside += weight;
                    }
                }
            }
            let mc = inside / total;
            assert!(
                (exact - mc).abs() < 0.01,
                "trial {trial}: exact {exact} vs quadrature {mc}"
            );
        }
    }
}
