//! The clipping implementation of `srank_geom::solid_angle` against the
//! original O(m³) vertex enumeration (kept in `reference/`), plus the edge
//! cases where the two could part ways: duplicate, parallel and opposed
//! planes, planes through an orthant vertex, empty and measure-zero
//! patches, and hemispheres and lunes.

mod reference;

use reference::{clipped_vertices, enumerate_patch, vertex_set_distance, with_orthant};
use srank_geom::hyperplane::HalfSpace;
use srank_geom::solid_angle::{exact_stability_3d_of, spherical_patch_area};
use std::f64::consts::FRAC_PI_2;

/// Clipping and enumeration agree on the orthant-clipped patch of random
/// cones of 1–8 planes: areas within 1e-9, vertex sets within 1e-7.
#[test]
fn random_cones_match_the_enumeration() {
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
    };
    let mut nonempty = 0;
    for trial in 0..2000 {
        let planes = 1 + trial % 8;
        let normals: Vec<Vec<f64>> = (0..planes).map(|_| vec![next(), next(), next()]).collect();
        let all = with_orthant(&normals);
        let (ref_vertices, ref_area) = enumerate_patch(&all).unwrap();
        let area = spherical_patch_area(&all).unwrap();
        assert!(
            (area - ref_area).abs() <= 1e-9,
            "trial {trial}: clipped {area} vs enumerated {ref_area}"
        );
        let gap = vertex_set_distance(&clipped_vertices(&all), &ref_vertices);
        assert!(gap <= 1e-7, "trial {trial}: vertex sets {gap:e} apart");
        nonempty += usize::from(area > 0.0);
    }
    // The cones are not all trivially empty.
    assert!(nonempty > 200, "only {nonempty} non-empty cones");
}

#[test]
fn duplicate_and_scaled_planes_change_nothing() {
    let h = vec![1.0, -2.0, 0.5];
    let base = exact_stability_3d_of(&[HalfSpace::new(h.clone())]).unwrap();
    let repeated = exact_stability_3d_of(&[
        HalfSpace::new(h.clone()),
        HalfSpace::new(h.clone()),
        HalfSpace::new(h.iter().map(|x| 3.0 * x).collect()),
        HalfSpace::new(vec![0.0, 0.0, 1.0]), // an orthant face again
    ])
    .unwrap();
    assert!(base > 0.0);
    assert_eq!(base, repeated);
}

#[test]
fn opposed_planes_leave_a_measure_zero_patch() {
    let h = vec![1.0, -1.0, 0.0];
    let normals = with_orthant(&[h.clone(), h.iter().map(|x| -x).collect()]);
    assert_eq!(spherical_patch_area(&normals), Some(0.0));
    assert!(clipped_vertices(&normals).is_empty());
    assert_eq!(enumerate_patch(&normals).unwrap().1, 0.0);
}

#[test]
fn planes_meeting_in_one_ray_leave_a_measure_zero_patch() {
    // w1 ≥ w2 ≥ w3 ≥ w1: only the ray (1, 1, 1).
    let s = exact_stability_3d_of(&[
        HalfSpace::new(vec![1.0, -1.0, 0.0]),
        HalfSpace::new(vec![0.0, 1.0, -1.0]),
        HalfSpace::new(vec![-1.0, 0.0, 1.0]),
    ])
    .unwrap();
    assert!(s < 1e-12, "s = {s}");
}

#[test]
fn parallel_cuts_keep_the_band_between_them() {
    // Two planes through the z axis facing each other, and a third plane
    // parallel (same direction) to the first: the band between the first two.
    let a = vec![-0.3f64.sin(), 0.3f64.cos(), 0.0];
    let b = vec![0.9f64.sin(), -0.9f64.cos(), 0.0];
    let normals = vec![a.clone(), b, a];
    let s = exact_stability_3d_of(&normals.into_iter().map(HalfSpace::new).collect::<Vec<_>>())
        .unwrap();
    assert!((s - 0.6 / FRAC_PI_2).abs() < 1e-12, "s = {s}");
}

#[test]
fn planes_through_an_orthant_vertex_halve_the_orthant() {
    for h in [
        vec![1.0, -1.0, 0.0], // through e3
        vec![0.0, 1.0, -1.0], // through e1
        vec![-1.0, 0.0, 1.0], // through e2
    ] {
        let all = with_orthant(std::slice::from_ref(&h));
        let s = exact_stability_3d_of(&[HalfSpace::new(h)]).unwrap();
        assert!((s - 0.5).abs() < 1e-12, "s = {s}");
        let gap = vertex_set_distance(&clipped_vertices(&all), &enumerate_patch(&all).unwrap().0);
        assert!(gap < 1e-12);
    }
}

/// Cuts through a vertex the clip itself computed, so that vertex sits on
/// the cutting plane only up to rounding: it must stay (the `TOL` band),
/// or the polygon loses a corner.
#[test]
fn cuts_through_a_computed_vertex_keep_it() {
    let unit = |v: [f64; 3]| {
        let len = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        v.map(|x| x / len)
    };
    let cross = |a: [f64; 3], b: [f64; 3]| {
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    };
    // A wedge with its apex at `p`: the great circles from `p` toward
    // `q1` and `q2`, each oriented toward the other direction.
    let p = unit([0.3, 0.5, 0.8]);
    let (q1, q2) = (unit([0.9, 0.2, 0.3]), unit([0.2, 0.9, 0.25]));
    let toward = |n: [f64; 3], q: [f64; 3]| {
        let side = n[0] * q[0] + n[1] * q[1] + n[2] * q[2];
        n.map(|x| x * side.signum())
    };
    let a = toward(cross(p, q1), q2);
    let b = toward(cross(p, q2), q1);
    let mut cut = 0;
    for k in 1..40 {
        // Planes through `p` that split the wedge: a·(1 + t) − b·t.
        let t = k as f64 / 17.0;
        let c: Vec<f64> = (0..3).map(|j| a[j] * (1.0 + t) - b[j] * t).collect();
        let all = with_orthant(&[a.to_vec(), b.to_vec(), c]);
        let (ref_vertices, ref_area) = enumerate_patch(&all).unwrap();
        let area = spherical_patch_area(&all).unwrap();
        assert!(
            (area - ref_area).abs() <= 1e-9,
            "t = {t}: {area} vs {ref_area}"
        );
        let gap = vertex_set_distance(&clipped_vertices(&all), &ref_vertices);
        assert!(gap <= 1e-9, "t = {t}: vertex sets {gap:e} apart");
        cut += usize::from(area > 0.0);
    }
    assert!(cut > 20, "the cuts leave area in {cut} of 39 cases");
}

#[test]
fn empty_regions_have_no_vertices() {
    // Requires w1 < 0 and w2 < 0: nothing in the orthant.
    let normals = with_orthant(&[vec![-1.0, 0.0, 0.0], vec![0.0, -1.0, 0.0]]);
    assert_eq!(spherical_patch_area(&normals), Some(0.0));
    assert!(clipped_vertices(&normals).is_empty());
    // Strictly outside, not just touching: w1 + w2 + w3 < 0.
    let s = exact_stability_3d_of(&[HalfSpace::new(vec![-1.0, -1.0, -1.0])]).unwrap();
    assert_eq!(s, 0.0);
}

#[test]
fn hemispheres_and_lunes_are_out_of_scope() {
    let x = vec![1.0, 0.0, 0.0];
    let y = vec![0.0, 1.0, 0.0];
    let xy = vec![1.0, 1.0, 0.0];
    assert_eq!(spherical_patch_area(std::slice::from_ref(&x)), None);
    assert_eq!(spherical_patch_area(&[x.clone(), y.clone()]), None);
    // Repeats and a third coplanar normal do not make three independent ones.
    assert_eq!(
        spherical_patch_area(&[x.clone(), y.clone(), x.clone(), y.clone()]),
        None
    );
    assert_eq!(spherical_patch_area(&[x.clone(), y.clone(), xy]), None);
    // Zero normals constrain nothing and are skipped.
    assert_eq!(spherical_patch_area(&[vec![0.0; 3], x, y]), None);
    assert_eq!(spherical_patch_area(&[]), None);
}

#[test]
fn any_three_independent_normals_seed_the_same_patch() {
    // The same cone listed in two orders: the seed triangle differs, the
    // patch does not.
    let normals = vec![
        vec![0.2, 0.9, -0.1],
        vec![1.0, 0.0, 0.0],
        vec![-0.3, 0.4, 0.8],
        vec![0.1, -0.2, 1.0],
    ];
    let mut reversed = normals.clone();
    reversed.reverse();
    let (a, b) = (
        spherical_patch_area(&normals).unwrap(),
        spherical_patch_area(&reversed).unwrap(),
    );
    let reference = enumerate_patch(&normals).unwrap().1;
    assert!(a > 0.1, "a = {a}");
    assert!(
        (a - b).abs() < 1e-12 && (a - reference).abs() < 1e-9,
        "{a} {b} {reference}"
    );
}
