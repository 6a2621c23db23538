//! The bounded-memory prepare path end to end: streaming SPICE parse
//! and grid ingest must be indistinguishable — bit for bit — from the
//! materialize-everything path, and the downstream assembly + AMG +
//! rough solve must stay bitwise identical at any thread count.

use ir_fusion::config::FusionConfig;
use ir_fusion::pipeline::IrFusionPipeline;
use irf_data::synth::{synthesize_to_path, synthesize_to_string, SynthSpec};
use irf_pg::{PgSystem, PowerGrid};
use irf_sparse::{CsrMatrix, Solver, SolverKind};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Mutex;

/// The global thread count is process-wide state; tests in this binary
/// run concurrently, so every comparison holds this lock while it
/// flips between serial and parallel execution.
static THREAD_CONFIG: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREAD_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    irf_runtime::set_num_threads(n);
    let result = f();
    irf_runtime::set_num_threads(0);
    result
}

fn medium_spec() -> SynthSpec {
    SynthSpec {
        m1_stripes: 96,
        m2_stripes: 96,
        m4_stripes: 8,
        blockages: 2,
        stripe_jitter: 0.1,
        hotspot_clusters: 3,
        hotspot_fraction: 0.4,
        seed: 23,
        ..SynthSpec::default()
    }
}

fn temp_netlist(name: &str, spec: &SynthSpec) -> PathBuf {
    let dir = std::env::temp_dir().join("irf_integration_streaming");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    synthesize_to_path(spec, &path).expect("stream netlist to file");
    path
}

type MatrixBits = (Vec<usize>, Vec<usize>, Vec<u64>);

fn matrix_bits(a: &CsrMatrix) -> MatrixBits {
    (
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.values().iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn streaming_parse_matches_materialized_parse() {
    let spec = medium_spec();
    let src = synthesize_to_string(&spec);
    let materialized = irf_spice::parse(&src).expect("materialized parse");
    let streamed = irf_spice::parse_reader(Cursor::new(src.as_bytes())).expect("streamed parse");
    assert_eq!(materialized, streamed, "netlists must be identical");
    assert_eq!(materialized.content_hash(), streamed.content_hash());

    let path = temp_netlist("parse_parity.sp", &spec);
    let from_file = irf_spice::parse_path(&path).expect("parse from file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(materialized.content_hash(), from_file.content_hash());
}

#[test]
fn streaming_grid_ingest_matches_materialized_path() {
    let spec = medium_spec();
    let path = temp_netlist("ingest_parity.sp", &spec);
    let streamed = irf_pg::grid_from_spice_path(&path).expect("streaming ingest");

    let src = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    let netlist = irf_spice::parse(&src).expect("parse");
    let materialized = PowerGrid::from_netlist(&netlist).expect("model grid");
    assert_eq!(streamed, materialized, "grids must be identical");

    let sys_streamed = PgSystem::try_build(&streamed).expect("assemble streamed");
    let sys_materialized = PgSystem::try_build(&materialized).expect("assemble materialized");
    assert_eq!(
        matrix_bits(&sys_streamed.matrix),
        matrix_bits(&sys_materialized.matrix),
        "assembled systems must be bitwise identical"
    );
    assert_eq!(sys_streamed.rhs, sys_materialized.rhs);
}

#[test]
fn large_grid_assembly_and_solve_are_thread_invariant() {
    let spec = SynthSpec::scaled_to_nodes(60_000, 5);
    let path = temp_netlist("thread_parity.sp", &spec);

    let mut reference: Option<(MatrixBits, Vec<u64>)> = None;
    for &threads in &[1usize, 2, 4, 8] {
        let (bits, solution) = with_threads(threads, || {
            let grid = irf_pg::grid_from_spice_path(&path).expect("streaming ingest");
            let system = PgSystem::try_build(&grid).expect("assemble");
            let setup = Solver::new(SolverKind::AmgPcg).prepare(&system.matrix);
            let report = setup
                .with_stopping(1e-3, 16)
                .solve(&system.matrix, &system.rhs);
            let solution: Vec<u64> = report.x.iter().map(|v| v.to_bits()).collect();
            (matrix_bits(&system.matrix), solution)
        });
        match &reference {
            None => reference = Some((bits, solution)),
            Some((ref_bits, ref_solution)) => {
                assert_eq!(ref_bits, &bits, "matrix differs at {threads} threads");
                assert_eq!(
                    ref_solution, &solution,
                    "rough solve differs at {threads} threads"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn prepare_spice_path_matches_in_memory_prepare() {
    let spec = SynthSpec::default();
    let path = temp_netlist("prepare_parity.sp", &spec);

    let pipeline = IrFusionPipeline::new(FusionConfig::tiny());
    let from_path = pipeline
        .stack_builder()
        .bypass_cache()
        .prepare_spice_path(&path)
        .expect("streaming prepare");

    let src = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    let grid = PowerGrid::from_netlist(&irf_spice::parse(&src).expect("parse")).expect("grid");
    let in_memory = pipeline
        .stack_builder()
        .bypass_cache()
        .prepare(&grid)
        .expect("in-memory prepare");

    assert_eq!(from_path.fingerprint, in_memory.fingerprint);
    let (_, _, _, path_data) = from_path.features.to_nchw();
    let (_, _, _, memory_data) = in_memory.features.to_nchw();
    let path_bits: Vec<u32> = path_data.iter().map(|v| v.to_bits()).collect();
    let memory_bits: Vec<u32> = memory_data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        path_bits, memory_bits,
        "feature stacks must be bitwise identical"
    );
    let rough_path: Vec<u32> = from_path.rough.data().iter().map(|v| v.to_bits()).collect();
    let rough_memory: Vec<u32> = in_memory.rough.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(rough_path, rough_memory, "rough maps must match bitwise");
}

// ---------------------------------------------------------------------
// Golden pins: the ingest path's outputs are fixed numbers, so any
// change to chunking, interning or grid building that alters a single
// bit — node order, element order, a value, an error line — fails
// here, independent of whether two code paths still agree.
// ---------------------------------------------------------------------

/// One 1,848-node design the size of a `/v1/predict` inline netlist.
fn serve_size_spec() -> SynthSpec {
    SynthSpec {
        m1_stripes: 28,
        m2_stripes: 28,
        m4_stripes: 5,
        ..irf_data::fake::fake_spec(3)
    }
}

/// FNV-1a over every field of every node, segment, load and pad.
fn grid_checksum(grid: &PowerGrid) -> u64 {
    let mut h = irf_spice::Fnv1a::new();
    h.write_u64(grid.nodes.len() as u64);
    for n in &grid.nodes {
        h.write(n.name.as_bytes());
        h.write(&[0]);
        h.write_u64(u64::from(n.layer));
        h.write_i64(n.x);
        h.write_i64(n.y);
        h.write(&[u8::from(n.is_pad)]);
    }
    h.write_u64(grid.segments.len() as u64);
    for s in &grid.segments {
        h.write_u64(s.a as u64);
        h.write_u64(s.b as u64);
        h.write_f64(s.ohms);
    }
    h.write_u64(grid.loads.len() as u64);
    for l in &grid.loads {
        h.write_u64(l.node as u64);
        h.write_f64(l.amps);
    }
    h.write_u64(grid.pads.len() as u64);
    for p in &grid.pads {
        h.write_u64(p.node as u64);
        h.write_f64(p.volts);
    }
    h.finish()
}

/// `(nodes, content hash, grid checksum)` of `src` through both grid
/// entry points, which must agree with each other and with the pin.
fn ingest_golden(src: &str) -> (usize, u64, u64) {
    let netlist = irf_spice::parse(src).expect("parses");
    let from_netlist = PowerGrid::from_netlist(&netlist).expect("valid grid");
    let streamed = irf_pg::grid_from_spice_reader(src.as_bytes()).expect("valid grid");
    let checksum = grid_checksum(&from_netlist);
    assert_eq!(checksum, grid_checksum(&streamed), "entry points disagree");
    (from_netlist.nodes.len(), netlist.content_hash(), checksum)
}

#[test]
fn ingest_outputs_match_golden_checksums() {
    let medium = synthesize_to_string(&medium_spec());
    assert_eq!(
        ingest_golden(&medium),
        (18529, 1695770361619816660, 681238734502409907),
        "medium_spec"
    );
    let serve = synthesize_to_string(&serve_size_spec());
    assert_eq!(
        ingest_golden(&serve),
        (1848, 15617196527051894895, 14874178791909569848),
        "serve-size demo"
    );
}

/// A generated source with `cards` resistors in one chain, so error
/// cases can sit deep inside a multi-chunk parse.
fn chain_source(cards: usize) -> String {
    let mut src = String::from("* generated\nV1 n0 0 1.0\n");
    for i in 0..cards {
        src.push_str(&format!("R{i} n{i} n{} 0.5\n", i + 1));
    }
    src.push_str(".end\n");
    src
}

#[test]
fn parse_errors_match_golden_kinds_and_lines() {
    let cases: Vec<(String, &str)> = vec![
        (
            "R1 a b\n".into(),
            "line 1: element 'R' card has only 3 fields",
        ),
        ("R1 a b zz\n".into(), "line 1: invalid numeric value 'zz'"),
        (
            "C1 a b 1p\n".into(),
            "line 1: unsupported element prefix 'C'",
        ),
        (
            "R1 a b 1\nR1 c d 2\n".into(),
            "line 2: duplicate element name 'R1'",
        ),
        (
            "R1 a b 1\nR1 c d zz\n".into(),
            "line 2: duplicate element name 'R1'",
        ),
        (
            "+ b 1.5\n".into(),
            "line 1: continuation line '+' with no preceding card",
        ),
        (
            "R1 a b 1\nR2 c\nR3 d e zz\nR4 f g 2\n".into(),
            "line 2: element 'R' card has only 2 fields",
        ),
        (
            chain_source(2000) + "R_bad x y zz\n",
            "line 2004: invalid numeric value 'zz'",
        ),
        (
            chain_source(1500) + "R7 dup dup2 1.0\n",
            "line 1504: duplicate element name 'R7'",
        ),
    ];
    for (src, want) in &cases {
        let err = irf_spice::parse(src).expect_err("invalid");
        assert_eq!(&err.to_string(), want);
        let streamed = irf_spice::parse_reader(src.as_bytes()).expect_err("invalid");
        assert_eq!(&streamed.to_string(), want);
    }
}

#[test]
fn grid_errors_match_golden_kinds_and_lines() {
    let cases = [
        (
            "R1 a b 0\nV1 a 0 1.0\n",
            "Model(NonPositiveResistance { name: \"R1\", ohms: 0.0 })",
        ),
        (
            "R1 a b -2\nV1 a 0 1.0\n",
            "Model(NonPositiveResistance { name: \"R1\", ohms: -2.0 })",
        ),
        (
            "R1 a b 1.0\nV1 a b 1.0\n",
            "Model(UngroundedSource { name: \"V1\" })",
        ),
        ("R1 a b 1.0\nI1 a 0 1m\n", "Model(NoPads)"),
        ("R1 a b 1.0\n", "Model(NoPads)"),
        (
            "V1 p 0 1.0\nR1 p a zz\n",
            "Parse(ParseError { line: 2, kind: InvalidValue(\"zz\") })",
        ),
    ];
    for (src, want) in cases {
        let streamed = irf_pg::grid_from_spice_reader(src.as_bytes()).expect_err("invalid");
        assert_eq!(format!("{streamed:?}"), want, "src={src:?}");
        if want.starts_with("Model(") {
            let netlist = irf_spice::parse(src).expect("parses");
            let err = PowerGrid::from_netlist(&netlist).expect_err("invalid");
            assert_eq!(format!("Model({err:?})"), want, "src={src:?}");
        }
    }
}

/// Every card `visit_cards` hands out, as owned tuples.
fn visited(
    src: &str,
) -> Vec<(
    irf_spice::StreamedCardKind,
    String,
    String,
    String,
    u64,
    usize,
)> {
    let mut cards = Vec::new();
    irf_spice::visit_cards(src.as_bytes(), |c| {
        let (a, b) = (c.a.to_string(), c.b.to_string());
        cards.push((c.kind, c.name.to_string(), a, b, c.value.to_bits(), c.line));
        Ok(())
    })
    .expect("visits");
    cards
}

#[test]
fn crlf_and_unterminated_last_line_ingest_like_lf() {
    let lf = synthesize_to_string(&serve_size_spec());
    assert!(lf.ends_with(".end\n"));
    let variants = [
        ("crlf", lf.replace('\n', "\r\n")),
        ("no trailing newline", lf.trim_end_matches('\n').to_string()),
        (
            "crlf, no trailing newline",
            lf.trim_end_matches('\n').replace('\n', "\r\n"),
        ),
        // The last card itself unterminated, not just `.end`.
        (
            "unterminated last card",
            lf.trim_end_matches(".end\n").to_string(),
        ),
    ];
    let netlist = irf_spice::parse(&lf).expect("parses");
    let cards = visited(&lf);
    let grid = irf_pg::grid_from_spice_reader(lf.as_bytes()).expect("valid grid");
    for (what, src) in &variants {
        assert_eq!(irf_spice::parse(src).expect("parses"), netlist, "{what}");
        assert_eq!(visited(src), cards, "{what}");
        let got = irf_pg::grid_from_spice_reader(src.as_bytes()).expect("valid grid");
        assert_eq!(got, grid, "{what}");
    }
}
