//! The original O(m³) vertex enumeration for spherical patches, kept only as
//! a test reference for the clipping implementation in
//! `srank_geom::solid_angle`.
//!
//! Every pair of boundary great circles meets in two antipodal points; the
//! ones that satisfy every constraint (within `1e-9`) are the vertices,
//! deduplicated at `1e-7`, ordered around their centroid. The area is
//! Girard's theorem: the sum of interior angles minus `(k − 2)π`, which
//! loses relative precision on tiny patches (the angle sum cancels against
//! `(k − 2)π`), so compare areas with it only on patches of moderate size.

use srank_geom::vector::{dot, linf_distance, normalized};

const TOL: f64 = 1e-9;

/// The patch `{x ∈ S² : n·x ≥ 0 for every normal}`: its vertices in
/// boundary order and its Girard area. `None` for input that is not 3-D or
/// has fewer than three distinct directions; no vertices (area 0) for an
/// empty or measure-zero patch.
pub fn enumerate_patch(normals: &[Vec<f64>]) -> Option<(Vec<Vec<f64>>, f64)> {
    if normals.iter().any(|n| n.len() != 3) {
        return None;
    }
    let mut dirs: Vec<Vec<f64>> = Vec::new();
    for n in normals {
        let Some(u) = normalized(n) else { continue };
        if !dirs.iter().any(|d| linf_distance(d, &u) < TOL) {
            dirs.push(u);
        }
    }
    if dirs.len() < 3 {
        return None;
    }

    let mut vertices: Vec<Vec<f64>> = Vec::new();
    for i in 0..dirs.len() {
        for j in (i + 1)..dirs.len() {
            let Some(v) = normalized(&cross(&dirs[i], &dirs[j])) else {
                continue; // parallel planes
            };
            for cand in [v.clone(), vec![-v[0], -v[1], -v[2]]] {
                if dirs.iter().all(|d| dot(d, &cand) >= -TOL)
                    && !vertices.iter().any(|u| linf_distance(u, &cand) < 1e-7)
                {
                    vertices.push(cand);
                }
            }
        }
    }
    if vertices.len() < 3 {
        return Some((Vec::new(), 0.0));
    }

    let mut centroid = vec![0.0; 3];
    for v in &vertices {
        for (c, x) in centroid.iter_mut().zip(v) {
            *c += x;
        }
    }
    let centroid = normalized(&centroid)?;
    let helper = if centroid[0].abs() < 0.9 {
        [1.0, 0.0, 0.0]
    } else {
        [0.0, 1.0, 0.0]
    };
    let u = normalized(&cross(&centroid, &helper))?;
    let w = cross(&centroid, &u);
    vertices.sort_by(|a, b| {
        let ang = |v: &[f64]| dot(v, &w).atan2(dot(v, &u));
        ang(a).total_cmp(&ang(b))
    });

    let k = vertices.len();
    let angle_sum: f64 = (0..k)
        .map(|i| {
            let here = &vertices[i];
            let t1 = tangent_toward(here, &vertices[(i + k - 1) % k]);
            let t2 = tangent_toward(here, &vertices[(i + 1) % k]);
            dot(&t1, &t2).clamp(-1.0, 1.0).acos()
        })
        .sum();
    let area = angle_sum - (k as f64 - 2.0) * std::f64::consts::PI;
    Some((vertices, area.max(0.0)))
}

/// Unit tangent at `from` along the great circle toward `to`.
fn tangent_toward(from: &[f64], to: &[f64]) -> Vec<f64> {
    let along = dot(to, from);
    let raw: Vec<f64> = to.iter().zip(from).map(|(t, f)| t - along * f).collect();
    normalized(&raw).unwrap_or_else(|| vec![0.0; 3])
}

fn cross(a: &[f64], b: &[f64]) -> Vec<f64> {
    vec![
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// The orthant's normals followed by `normals`: the input the stability
/// oracle clips.
pub fn with_orthant(normals: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut all = vec![
        vec![1.0, 0.0, 0.0],
        vec![0.0, 1.0, 0.0],
        vec![0.0, 0.0, 1.0],
    ];
    all.extend(normals.iter().cloned());
    all
}

/// The vertices of `srank_geom::solid_angle::spherical_patch`, in the
/// reference's representation.
pub fn clipped_vertices(normals: &[Vec<f64>]) -> Vec<Vec<f64>> {
    srank_geom::solid_angle::spherical_patch(normals.iter().map(Vec::as_slice))
        .expect("three independent normals")
        .iter()
        .map(|v| v.to_vec())
        .collect()
}

/// The largest distance from a point of either vertex set to the nearest
/// point of the other (the Hausdorff distance); infinite when exactly one
/// set is empty.
pub fn vertex_set_distance(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    let one_way = |from: &[Vec<f64>], to: &[Vec<f64>]| {
        from.iter()
            .map(|p| {
                to.iter()
                    .map(|q| linf_distance(p, q))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max)
    };
    if a.is_empty() && b.is_empty() {
        0.0
    } else {
        one_way(a, b).max(one_way(b, a))
    }
}
