//! Layer calls timed from outside the program: the pipeline's cold
//! stage walk decomposed into the public functions of each crate, and
//! stand-alone probes of single feature families and forward passes.
//!
//! Every decomposed walk is checked bitwise against the pipeline's own
//! result by its caller, so a drift between this file and the pipeline
//! shows up as a failed check rather than as silently wrong timings.

use crate::stats::{ms, LayerSamples};
use ir_fusion::{FusionConfig, IrFusionPipeline, PreparedStack, TrainedModel};
use irf_features::FeatureExtractor;
use irf_features::{current, density, distance, resistance, shortest_path, solution};
use irf_pg::{GridMap, PgStructure, PowerGrid};
use irf_sparse::{CsrMatrix, Solver};
use std::hint::black_box;
use std::time::Instant;

/// Runs `f`, returning its value and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = black_box(f());
    (value, t0.elapsed().as_secs_f64())
}

/// The solver the pipeline uses for its truncated rough solve: the
/// configured kind and AMG parameters, tolerance out of reach so the
/// iteration budget is the only stop.
pub fn rough_solver(cfg: &FusionConfig) -> Solver {
    Solver::new(cfg.solver_kind)
        .with_amg_params(cfg.amg)
        .with_tolerance(1e-12)
        .with_max_iterations(cfg.solver_iterations)
}

/// Bytes one scalar CSR SpMV moves, computed from the array sizes
/// (`usize` row pointers and column indices, `f64` values, one read of
/// `x` and one write of `y`); cache misses are not counted.
pub fn spmv_bytes(a: &CsrMatrix) -> f64 {
    let word = std::mem::size_of::<usize>() as f64;
    a.nnz() as f64 * (8.0 + word)
        + (a.rows() + 1) as f64 * word
        + (a.cols() + a.rows()) as f64 * 8.0
}

/// FNV-1a digest over the bit patterns of `maps`.
pub fn digest(maps: &[&GridMap]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for map in maps {
        for v in map.data() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// One cold stage walk (assembly → AMG setup → truncated PCG → feature
/// extraction), each step a timed call into its crate. Records the
/// step times in `layers` and returns the prepared stack, the per-node
/// rough drops and the summed step seconds.
pub fn cold_walk(
    cfg: &FusionConfig,
    grid: &PowerGrid,
    layers: &mut LayerSamples,
) -> (PreparedStack, Vec<f64>, f64) {
    let (structure, assemble_s) = timed(|| PgStructure::build(grid));
    let solver = rough_solver(cfg);
    let (setup, amg_s) = timed(|| solver.prepare(&structure.matrix));
    let ((report, drops), pcg_s) = timed(|| {
        let rhs = structure.rhs(&grid.loads);
        let report = setup.solve(&structure.matrix, &rhs);
        let drops = structure.expand_solution(&report.x);
        (report, drops)
    });
    let extractor = FeatureExtractor::new(cfg.feature);
    let ((features, rough), features_s) = timed(|| {
        let features = extractor.extract(grid, &drops).expect("design has pads");
        let raster = extractor.rasterizer(grid);
        let rough = solution::bottom_layer_solution_map(grid, &drops, &raster);
        (features, rough)
    });
    let a = &structure.matrix;
    layers.push("pg.assemble_ms", "ms", ms(assemble_s));
    layers.push("pg.nnz", "count", a.nnz() as f64);
    layers.push("sparse.amg_setup_ms", "ms", ms(amg_s));
    layers.push("sparse.pcg_ms", "ms", ms(pcg_s));
    layers.push("sparse.pcg_iterations", "count", report.iterations as f64);
    layers.push(
        "sparse.pcg_ms_per_iter",
        "ms",
        ms(pcg_s) / report.iterations.max(1) as f64,
    );
    layers.push("sparse.spmv_bytes_per_iter", "B", spmv_bytes(a));
    layers.push("features.stack_ms", "ms", ms(features_s));
    let stack = PreparedStack {
        fingerprint: 0,
        features,
        rough,
        solve_report: report,
        solve_seconds: pcg_s,
        feature_seconds: features_s,
    };
    (stack, drops, assemble_s + amg_s + pcg_s + features_s)
}

/// Number of AMG levels the configured solver builds for `a`.
pub fn amg_levels(cfg: &FusionConfig, a: &CsrMatrix) -> usize {
    irf_sparse::amg::AmgHierarchy::build(a, cfg.amg).num_levels()
}

/// Times each feature family on its own: the public map function(s)
/// behind one channel group of the stack.
pub fn feature_families(
    cfg: &FusionConfig,
    grid: &PowerGrid,
    drops: &[f64],
    layers: &mut LayerSamples,
) {
    let raster = FeatureExtractor::new(cfg.feature).rasterizer(grid);
    let r = &raster;
    let (_, s) = timed(|| resistance::resistance_map(grid, r));
    layers.push("features.resistance_map_ms", "ms", ms(s));
    shortest_path_family(grid, r, layers);
    let (_, s) = timed(|| distance::effective_distance_map(grid, r));
    layers.push("features.effective_distance_ms", "ms", ms(s));
    let (_, s) = timed(|| density::pdn_density_map(grid, r));
    layers.push("features.pdn_density_ms", "ms", ms(s));
    current_family(grid, r, layers);
    let (_, s) = timed(|| solution::layer_solution_maps(grid, drops, r));
    layers.push("features.layer_solutions_ms", "ms", ms(s));
}

/// Times the shortest-path family (per-pad Dijkstra + rasterization).
pub fn shortest_path_family(
    grid: &PowerGrid,
    raster: &irf_pg::Rasterizer,
    layers: &mut LayerSamples,
) {
    let (_, s) = timed(|| {
        let values =
            shortest_path::shortest_path_resistance_per_node(grid).expect("design has pads");
        shortest_path::rasterize_per_node(grid, &values, raster)
    });
    layers.push("features.shortest_path_ms", "ms", ms(s));
}

/// Times the current family (total + per-layer current maps).
pub fn current_family(grid: &PowerGrid, raster: &irf_pg::Rasterizer, layers: &mut LayerSamples) {
    let (_, s) = timed(|| {
        (
            current::total_current_map(grid, raster),
            current::layer_current_maps(grid, raster),
        )
    });
    layers.push("features.layer_currents_ms", "ms", ms(s));
}

/// Times batched forward passes at batch 1 and 2 on `stack`.
pub fn forward_batches(
    pipeline: &IrFusionPipeline,
    model: &TrainedModel,
    stack: &PreparedStack,
    layers: &mut LayerSamples,
) {
    let (_, s) = timed(|| pipeline.predict_batch(model, &[stack]));
    layers.push("models.forward_batch1_ms", "ms", ms(s));
    let (_, s) = timed(|| pipeline.predict_batch(model, &[stack, stack]));
    layers.push("models.forward_batch2_ms", "ms", ms(s));
}
