//! On DoT n = 400 full-ranking regions (about 400 planes, a few vertices,
//! stabilities near 1e-9), the exact 3-D oracle's clipped polygon has the
//! same vertices as the original O(m³) enumeration, and its stability is
//! that polygon's area.

#[path = "../../geom/tests/reference/mod.rs"]
mod reference;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::{clipped_vertices, enumerate_patch, vertex_set_distance, with_orthant};
use srank_core::prelude::*;
use srank_core::ranking_region_md;
use srank_data::dot;
use srank_geom::solid_angle::spherical_patch_area;

#[test]
fn dot_ranking_regions_match_the_enumeration() {
    let mut rng = StdRng::seed_from_u64(1322);
    let data = Dataset::from_rows(&dot(&mut rng, 400).normalized()).unwrap();
    for _ in 0..4 {
        let w: Vec<f64> = (0..3).map(|_| 0.05 + 0.95 * rng.random::<f64>()).collect();
        let ranking = data.rank(&w).unwrap();
        let region = ranking_region_md(&data, &ranking).unwrap().unwrap();
        let normals: Vec<Vec<f64>> = region
            .halfspaces()
            .iter()
            .map(|h| h.coeffs().to_vec())
            .collect();
        let all = with_orthant(&normals);

        let clipped = clipped_vertices(&all);
        let (enumerated, _) = enumerate_patch(&all).unwrap();
        assert!(clipped.len() >= 3, "the ranking's own weights lie inside");
        let gap = vertex_set_distance(&clipped, &enumerated);
        assert!(gap <= 1e-10, "w = {w:?}: vertex sets {gap:e} apart");

        let verified = stability_verify_3d_exact(&data, &ranking).unwrap().unwrap();
        let area = spherical_patch_area(&all).unwrap();
        assert_eq!(verified.stability, area / std::f64::consts::FRAC_PI_2);
        assert!(verified.stability > 0.0 && verified.stability < 1e-3);
    }
}
