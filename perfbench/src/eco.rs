//! `eco_optimize`: the warm ECO loop on the 20,736-node sweep/optimize
//! bench grid. One operation pass opens a fresh stage store, prepares
//! the base design cold, runs a fixed script of current-delta and
//! topology (strap/via/segment) what-ifs against it, then one
//! `Optimizer::run` to a target between the base drop and the
//! widen-everything drop.
//!
//! Checks: every pass reproduces the first pass bitwise (what-if
//! results and the optimizer trajectory checksum), the optimizer meets
//! its target, and one sampled warm edit equals its cold analysis.

use crate::layers::{self, digest, rough_solver, timed};
use crate::stats::{median, ms, LayerSamples, Metric};
use crate::{repeated_setup, sys, Ctx, Outcome};
use ir_fusion::{
    AnalysisSession, FusionConfig, IrFusionPipeline, PreparedStack, StageStore, TopologyDelta,
};
use irf_data::synth::{synthesize, SynthSpec};
use irf_features::{solution, FeatureExtractor, GeometryMaps, ResistanceMaps};
use irf_opt::{CostModel, Optimizer, OptimizerConfig};
use irf_pg::{PgStructure, PowerGrid};
use irf_runtime::Xoshiro256pp;
use irf_sparse::{SolveReport, SolverSetup};
use std::sync::Arc;
use std::time::Instant;

/// Current-delta what-ifs per pass.
const CURRENT: usize = 8;
/// Topology what-ifs per pass.
const TOPOLOGY: usize = 12;
/// Tail percentile of the topology what-ifs: the highest with ten
/// samples beyond it at the ~60 a 25-second run completes.
const TAIL_PCT: u32 = 75;

/// One scripted what-if.
enum Edit {
    Current(Vec<(usize, f64)>),
    Topology(Vec<TopologyDelta>),
}

struct Setup {
    grid: Arc<PowerGrid>,
    script: Vec<Edit>,
    optimizer: OptimizerConfig,
}

/// The sweep/optimize bench grid (96×96 m1/m2 stripes, 12 m4
/// stripes, 24 pads: 20,736 nodes), the same for every seed: the seed
/// draws the what-if script, so the optimizer's trajectory, and with
/// it the work of one pass, stays fixed.
fn bench_spec() -> SynthSpec {
    SynthSpec {
        m1_stripes: 96,
        m2_stripes: 96,
        m4_stripes: 12,
        pads: 24,
        stripe_jitter: 0.05,
        seed: 0xF1,
        ..SynthSpec::default()
    }
}

/// Strap layers and via layer pairs present in the grid, in
/// first-seen order.
fn discover(grid: &PowerGrid) -> (Vec<u32>, Vec<(u32, u32)>) {
    let mut straps = Vec::new();
    let mut vias = Vec::new();
    for s in &grid.segments {
        let (a, b) = (grid.nodes[s.a].layer, grid.nodes[s.b].layer);
        if a == b {
            if !straps.contains(&a) {
                straps.push(a);
            }
        } else if !vias.contains(&(a.min(b), a.max(b))) {
            vias.push((a.min(b), a.max(b)));
        }
    }
    (straps, vias)
}

/// Base grid, what-if script, and the optimizer target (which needs
/// the base and widen-everything drops).
fn setup(ctx: &Ctx, cfg: &FusionConfig) -> Setup {
    let mut rng = Xoshiro256pp::seed_from_u64(ctx.seed);
    let grid = Arc::new(PowerGrid::from_netlist(&synthesize(&bench_spec())).expect("bench grid"));
    let (straps, vias) = discover(&grid);
    let mut topology = (0..TOPOLOGY)
        .map(|j| {
            let scale = rng.random_range(0.5..0.9);
            let delta = match j % 3 {
                0 => TopologyDelta::Strap {
                    layer: straps[rng.random_range(0..straps.len())],
                    scale,
                },
                1 => {
                    let (lower, upper) = vias[rng.random_range(0..vias.len())];
                    TopologyDelta::Via {
                        lower,
                        upper,
                        scale,
                    }
                }
                _ => {
                    let segment = rng.random_range(0..grid.segments.len());
                    TopologyDelta::Segment {
                        segment,
                        ohms: grid.segments[segment].ohms * scale,
                    }
                }
            };
            Edit::Topology(vec![delta])
        })
        .collect::<Vec<_>>()
        .into_iter();
    let nodes = grid.nodes.len();
    let mut current = (0..CURRENT)
        .map(|_| {
            Edit::Current(
                (0..4)
                    .map(|_| (rng.random_range(0..nodes), rng.random_range(1e-4..2e-3)))
                    .collect(),
            )
        })
        .collect::<Vec<_>>()
        .into_iter();
    // Fixed interleaving: (current, topology, current, topology,
    // topology) four times.
    let mut script = Vec::with_capacity(CURRENT + TOPOLOGY);
    for _ in 0..4 {
        for is_current in [true, false, true, false, false] {
            let edit = if is_current {
                current.next()
            } else {
                topology.next()
            };
            script.push(edit.expect("script sized to CURRENT and TOPOLOGY"));
        }
    }

    let pipeline = IrFusionPipeline::new(*cfg).with_cache(Arc::new(StageStore::new(64)));
    let max_drop = |deltas: &[TopologyDelta]| {
        f64::from(
            pipeline
                .session(Arc::clone(&grid))
                .with_topology_deltas(deltas)
                .expect("valid plan")
                .prepare()
                .expect("grid has pads")
                .rough
                .max(),
        )
    };
    let widen: Vec<TopologyDelta> = straps
        .iter()
        .map(|&layer| TopologyDelta::Strap { layer, scale: 0.5 })
        .chain(vias.iter().map(|&(lower, upper)| TopologyDelta::Via {
            lower,
            upper,
            scale: 0.5,
        }))
        .collect();
    let (base_max, widen_max) = (max_drop(&[]), max_drop(&widen));
    let optimizer = OptimizerConfig {
        target_max_drop: widen_max + 0.35 * (base_max - widen_max),
        metal_budget: CostModel::default().plan_cost(&grid, &widen),
        beam_width: 2,
        max_iterations: 8,
        max_evaluations: 64,
        candidates_per_state: 6,
        warm_start: true,
    };
    Setup {
        grid,
        script,
        optimizer,
    }
}

/// Digest of a prepared stack's rough map and feature channels.
fn stack_digest(stack: &PreparedStack) -> u64 {
    let mut maps = vec![&stack.rough];
    maps.extend(stack.features.maps());
    digest(&maps)
}

/// A session on the base design with `edit` applied.
fn session<'p>(
    pipeline: &'p IrFusionPipeline,
    grid: &Arc<PowerGrid>,
    edit: &Edit,
) -> AnalysisSession<'p> {
    let session = pipeline.session(Arc::clone(grid));
    match edit {
        Edit::Current(deltas) => session.with_current_deltas(deltas),
        Edit::Topology(deltas) => session.with_topology_deltas(deltas).expect("valid edit"),
    }
}

/// The untraced what-if, prepared through the pipeline's store.
fn whatif(pipeline: &IrFusionPipeline, grid: &Arc<PowerGrid>, edit: &Edit) -> Arc<PreparedStack> {
    session(pipeline, grid, edit)
        .prepare()
        .expect("grid has pads")
}

/// Base artifacts the decomposed what-ifs start from (equal to what
/// the warm store holds, computed outside any measured window).
struct Base {
    structure: PgStructure,
    setup: SolverSetup,
    rough: SolveReport,
    geometry: GeometryMaps,
    resistance: ResistanceMaps,
}

impl Base {
    fn new(cfg: &FusionConfig, grid: &PowerGrid) -> Self {
        let structure = PgStructure::build(grid);
        let setup = rough_solver(cfg).prepare(&structure.matrix);
        let rough = setup.solve(&structure.matrix, &structure.rhs(&grid.loads));
        let extractor = FeatureExtractor::new(cfg.feature);
        Base {
            geometry: extractor.geometry(grid).expect("grid has pads"),
            resistance: extractor.resistance_maps(grid).expect("grid has pads"),
            structure,
            setup,
            rough,
        }
    }
}

/// One what-if decomposed into timed layer calls. Returns the digest
/// of its result and the window in ms.
fn traced_whatif(
    cfg: &FusionConfig,
    pipeline: &IrFusionPipeline,
    grid: &Arc<PowerGrid>,
    base: &Base,
    edit: &Edit,
    layers: &mut LayerSamples,
) -> (u64, f64) {
    let extractor = FeatureExtractor::new(cfg.feature);
    let t0 = Instant::now();
    let (edited, edit_s) = timed(|| Arc::clone(session(pipeline, grid, edit).grid()));
    let mut attributed = edit_s;
    // Topology edits re-stamp the base matrix and rebuild the AMG
    // hierarchy against the base setup; current edits reuse both.
    let rebuilt = match edit {
        Edit::Current(_) => None,
        Edit::Topology(_) => {
            // Like the pipeline, assemble cold if the pattern changed.
            let (structure, restamp_s) = timed(|| {
                base.structure
                    .restamped(&edited)
                    .unwrap_or_else(|| PgStructure::build(&edited))
            });
            let (setup, rebuild_s) =
                timed(|| rough_solver(cfg).rebuild_from(&base.setup, &structure.matrix));
            layers.push("pg.restamp_ms", "ms", ms(restamp_s));
            layers.push("sparse.amg_rebuild_ms", "ms", ms(rebuild_s));
            attributed += restamp_s + rebuild_s;
            Some((structure, setup))
        }
    };
    let (structure, setup) = rebuilt
        .as_ref()
        .map_or((&base.structure, &base.setup), |(st, se)| (st, se));
    let rhs = structure.rhs(&edited.loads);
    let ((report, drops), pcg_s) = timed(|| {
        let report = setup.solve(&structure.matrix, &rhs);
        let drops = structure.expand_solution(&report.x);
        (report, drops)
    });
    let ((features, rough), features_s) = timed(|| {
        let fresh = rebuilt
            .is_some()
            .then(|| extractor.resistance_maps(&edited).expect("grid has pads"));
        let resistance = fresh.as_ref().unwrap_or(&base.resistance);
        let features = extractor
            .extract_with_parts(&edited, &drops, &base.geometry, resistance)
            .expect("grid has pads");
        let raster = extractor.rasterizer(&edited);
        (
            features,
            solution::bottom_layer_solution_map(&edited, &drops, &raster),
        )
    });
    let window = t0.elapsed().as_secs_f64();
    attributed += pcg_s + features_s;
    layers.push("core.edit_ms", "ms", ms(edit_s));
    layers.push("sparse.pcg_ms", "ms", ms(pcg_s));
    layers.push("sparse.pcg_iterations", "count", report.iterations as f64);
    layers.push(
        "sparse.pcg_ms_per_iter",
        "ms",
        ms(pcg_s) / report.iterations.max(1) as f64,
    );
    layers.push("features.stack_ms", "ms", ms(features_s));
    layers.push("trace.coverage", "ratio", attributed / window);

    // Probes outside the window: the families an edit recomputes, and
    // a solve warm-started from the base solution as the optimizer
    // runs it.
    if rebuilt.is_some() {
        let raster = extractor.rasterizer(&edited);
        let (_, s) = timed(|| irf_features::resistance::resistance_map(&edited, &raster));
        layers.push("features.resistance_map_ms", "ms", ms(s));
        layers::shortest_path_family(&edited, &raster, layers);
        let relaxed = setup.with_stopping(
            base.rough.residual.max(setup.tolerance()),
            setup.max_iterations(),
        );
        let warm = relaxed.solve_with_guess(&structure.matrix, &rhs, base.rough.x.clone());
        layers.push(
            "sparse.pcg_warm_iterations",
            "count",
            warm.iterations as f64,
        );
    } else {
        let raster = extractor.rasterizer(&edited);
        layers::current_family(&edited, &raster, layers);
        let (_, s) = timed(|| solution::layer_solution_maps(&edited, &drops, &raster));
        layers.push("features.layer_solutions_ms", "ms", ms(s));
    }
    let mut maps = vec![&rough];
    maps.extend(features.maps());
    (digest(&maps), ms(window))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let cfg = FusionConfig::tiny();
    let (setup, setup_times) = repeated_setup(|| setup(ctx, &cfg));
    let grid = &setup.grid;
    let mut outcome = Outcome::default();

    // Cold analysis of one sampled topology edit, untimed.
    let mut rng = Xoshiro256pp::seed_from_u64(ctx.seed ^ 0x5A3D);
    let topology_steps: Vec<usize> = (0..setup.script.len())
        .filter(|&i| matches!(setup.script[i], Edit::Topology(_)))
        .collect();
    let sampled = topology_steps[rng.random_range(0..topology_steps.len())];
    let cold = stack_digest(&whatif(
        &IrFusionPipeline::new(cfg),
        grid,
        &setup.script[sampled],
    ));
    let mut rss = Vec::new();
    let mut rss_reset = false;

    let mut current_ms = Vec::new();
    let mut topology_cpu = Vec::new();
    let mut optimize_cpu = Vec::new();
    let mut topology_ms = Vec::new();
    let mut base_ms = Vec::new();
    let mut optimize_s = Vec::new();
    let mut evaluations = Vec::new();
    let mut traced_windows = Vec::new();
    let mut layers = LayerSamples::default();
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut first_pass: Option<(Vec<u64>, u64)> = None;
    let start = Instant::now();
    while optimize_s.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        rss_reset = sys::reset_peak_rss("self");
        let store = Arc::new(StageStore::new(64));
        let pipeline = IrFusionPipeline::new(cfg).with_cache(Arc::clone(&store));
        let (_, s) = timed(|| {
            pipeline
                .session(Arc::clone(grid))
                .prepare()
                .expect("grid has pads")
        });
        base_ms.push(ms(s));
        let base = ctx.trace.then(|| Base::new(&cfg, grid));

        let mut digests = Vec::with_capacity(setup.script.len());
        for (step, edit) in setup.script.iter().enumerate() {
            outcome.begin();
            let cpu0 = sys::cpu_seconds("self");
            let (stack, s) = timed(|| whatif(&pipeline, grid, edit));
            if matches!(edit, Edit::Topology(_)) {
                topology_cpu.push(ms(sys::cpu_seconds("self") - cpu0));
            }
            let result = stack_digest(&stack);
            match edit {
                Edit::Current(_) => current_ms.push(ms(s)),
                Edit::Topology(_) => topology_ms.push(ms(s)),
            }
            if step == sampled {
                outcome.check(result == cold, || {
                    format!("step {step}: warm topology edit differs from its cold analysis")
                });
            }
            if let Some(base) = &base {
                let (traced, window) =
                    traced_whatif(&cfg, &pipeline, grid, base, edit, &mut layers);
                if matches!(edit, Edit::Topology(_)) {
                    traced_windows.push(window);
                }
                outcome.check(traced == result, || {
                    format!("step {step}: decomposed what-if differs from the session's")
                });
            }
            digests.push(result);
        }

        outcome.begin();
        let optimizer = Optimizer::new(&pipeline, setup.optimizer.clone())
            .with_cost_model(CostModel::default());
        let cpu0 = sys::cpu_seconds("self");
        let (report, s) = timed(|| optimizer.run(Arc::clone(grid)).expect("optimizer runs"));
        optimize_cpu.push(sys::cpu_seconds("self") - cpu0);
        optimize_s.push(s);
        evaluations.push(report.evaluations as f64);
        outcome.check(report.target_met, || {
            format!(
                "optimizer missed its target: stopped {} at {} V",
                report.stop_reason.label(),
                report.winner.max_drop
            )
        });
        rss.push(sys::peak_rss_mb("self").unwrap_or(0.0));
        hits += store.hits();
        misses += store.misses();

        match &first_pass {
            None => first_pass = Some((digests, report.checksum())),
            Some((first, checksum)) => {
                for (step, (a, b)) in first.iter().zip(&digests).enumerate() {
                    outcome.check(a == b, || {
                        format!("step {step} differs from the first pass")
                    });
                }
                outcome.check(*checksum == report.checksum(), || {
                    "optimizer trajectory checksum differs from the first pass".to_string()
                });
            }
        }
    }

    if ctx.trace {
        layers.push("core.whatif_current_ms", "ms", median(&current_ms));
        layers.push("core.whatif_topology_ms", "ms", median(&topology_ms));
        layers.push("core.cache_hits", "count", hits as f64);
        layers.push("core.cache_misses", "count", misses as f64);
        layers.push(
            "core.cache_hit_rate",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        for (&s, &n) in optimize_s.iter().zip(&evaluations) {
            layers.push("opt.evaluations", "count", n);
            layers.push("opt.ms_per_evaluation", "ms", ms(s) / n.max(1.0));
            layers.push("opt.run_s", "s", s);
        }
        let untraced = median(&topology_ms);
        layers.push(
            "trace.overhead_pct",
            "%",
            100.0 * (median(&traced_windows) - untraced) / untraced,
        );
        outcome.metrics = layers.into_metrics();
    } else {
        let evals: f64 = evaluations.iter().sum();
        outcome.metrics = vec![
            Metric::new("setup_s", "s", median(&setup_times), setup_times.len()),
            Metric::new("peak_rss_mb", "MB", median(&rss), rss.len()),
            Metric::percentile("op_cpu_ms", "ms", &topology_cpu, 50),
            Metric::new(
                "ops_per_cpu_s",
                "1/s",
                evals / optimize_cpu.iter().sum::<f64>(),
                optimize_cpu.len(),
            ),
        ];
        outcome.row = vec![
            Metric::percentile("whatif_current_p50_ms", "ms", &current_ms, 50),
            Metric::percentile("whatif_topology_p50_ms", "ms", &topology_ms, 50),
            Metric::percentile("whatif_topology_tail_ms", "ms", &topology_ms, TAIL_PCT),
            Metric::percentile("optimize_p50_s", "s", &optimize_s, 50),
            Metric::new(
                "optimizer_evals_per_s",
                "1/s",
                evals / optimize_s.iter().sum::<f64>(),
                optimize_s.len(),
            ),
            Metric::percentile("base_prepare_p50_ms", "ms", &base_ms, 50),
            Metric::new(
                "opt.evaluations",
                "count",
                median(&evaluations),
                evaluations.len(),
            ),
        ];
    }
    outcome.row.push(Metric::new(
        "peak_rss_per_op",
        "bool",
        f64::from(u8::from(rss_reset)),
        1,
    ));
    outcome
}
