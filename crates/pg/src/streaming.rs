//! Streaming grid ingest: SPICE bytes → [`PowerGrid`] with no
//! [`Netlist`](irf_spice::Netlist) and no source text in memory.
//!
//! [`grid_from_spice_reader`] subscribes to the card-visitor stream
//! ([`irf_spice::visit_cards`]), interns node names to dense ids as
//! cards arrive, and feeds the cards to the same builder
//! [`PowerGrid::from_netlist`] uses, so both entry points number,
//! sign and validate the grid the same way. Golden tests pin both.
//!
//! Two differences on *invalid* input only:
//!
//! * duplicate element names are not detected (that check needs
//!   whole-file state the visitor stream deliberately does not keep —
//!   parse the netlist with [`irf_spice::parse_reader`] when it
//!   matters);
//! * errors surface in stream order, so a model error (say `R <= 0`
//!   on line 3) can win over a parse error later in the file, where
//!   the two-phase netlist path would report the parse error first.
//!   Valid designs are unaffected.

use crate::error::ModelError;
use crate::grid::{GridBuilder, PgNode, PowerGrid};
use irf_spice::error::{ParseError, ParseErrorKind};
use irf_spice::{NodeId, NodeInfo, StreamError, StreamedCard, StreamedCardKind};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// Read-buffer capacity for [`grid_from_spice_path`].
const FILE_BUF_BYTES: usize = 1 << 20;

/// Error from a streaming grid ingest: the reader failed, the SPICE
/// text was malformed, or the design is electrically invalid.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed (including non-UTF-8 bytes).
    Io(io::Error),
    /// The SPICE text failed to parse.
    Parse(ParseError),
    /// The parsed design violates a grid invariant (non-positive
    /// resistance, ungrounded source, no pads).
    Model(ModelError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "i/o error while reading netlist: {e}"),
            IngestError::Parse(e) => write!(f, "{e}"),
            IngestError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Parse(e) => Some(e),
            IngestError::Model(e) => Some(e),
        }
    }
}

impl From<StreamError> for IngestError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Io(e) => IngestError::Io(e),
            StreamError::Parse(e) => IngestError::Parse(e),
        }
    }
}

impl From<ModelError> for IngestError {
    fn from(e: ModelError) -> Self {
        IngestError::Model(e)
    }
}

/// Dense node ids for the names of one stream; `"0"` is ground.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<String, NodeId>,
    /// Nodes first seen on an I or V card, held until the builder
    /// places them in `finish`. R-card nodes are placed at once from
    /// the card text, so each name is copied only into `ids` and its
    /// [`PgNode`].
    kept: HashMap<NodeId, NodeInfo>,
}

impl Interner {
    /// The id of `name`, and whether this is its first appearance.
    fn id(&mut self, name: &str) -> (NodeId, bool) {
        if name == "0" {
            return (NodeId::GROUND, false);
        }
        if let Some(&id) = self.ids.get(name) {
            return (id, false);
        }
        let id = NodeId(u32::try_from(self.ids.len() + 1).expect("node count fits u32"));
        self.ids.insert(name.to_string(), id);
        (id, true)
    }

    /// [`Interner::id`] for an I or V card terminal, keeping the
    /// node's info until it is placed.
    fn kept_id(&mut self, name: &str) -> NodeId {
        let (id, new) = self.id(name);
        if new {
            self.kept.insert(id, NodeInfo::from_name(name));
        }
        id
    }

    /// Feeds one card to `builder`.
    fn feed(
        &mut self,
        builder: &mut GridBuilder,
        card: &StreamedCard<'_>,
    ) -> Result<(), ModelError> {
        match card.kind {
            StreamedCardKind::Resistor => {
                let (a, _) = self.id(card.a);
                let (b, _) = self.id(card.b);
                let name_of = |id| if id == a { card.a } else { card.b };
                builder.resistor(card.name, a, b, card.value, |id| {
                    PgNode::from_info(NodeInfo::from_name(name_of(id)))
                })?;
            }
            StreamedCardKind::CurrentSource => {
                let (from, to) = (self.kept_id(card.a), self.kept_id(card.b));
                builder.current_source(from, to, card.value);
            }
            StreamedCardKind::VoltageSource => {
                let (plus, minus) = (self.kept_id(card.a), self.kept_id(card.b));
                builder.voltage_source(card.name, plus, minus, card.value);
            }
        }
        Ok(())
    }
}

/// Streams SPICE text from `reader` directly into a [`PowerGrid`],
/// never materializing the source or a netlist. The grid equals
/// `PowerGrid::from_netlist(&irf_spice::parse(&text)?)` on the same
/// bytes; see the [module docs](self) for the two invalid-input
/// caveats.
///
/// # Errors
///
/// [`IngestError::Io`] / [`IngestError::Parse`] from the stream,
/// [`IngestError::Model`] for electrically invalid designs.
pub fn grid_from_spice_reader<R: BufRead>(reader: R) -> Result<PowerGrid, IngestError> {
    let mut span = irf_trace::span("grid_stream_ingest");
    let mut builder = GridBuilder::default();
    let mut names = Interner::default();
    let mut model_err: Option<ModelError> = None;
    let result = irf_spice::visit_cards(reader, |card| {
        names.feed(&mut builder, card).map_err(|e| {
            // The visitor contract only carries `ParseError`; park the
            // model error and abort with a sentinel that is replaced
            // below.
            model_err = Some(e);
            ParseError {
                line: card.line,
                kind: ParseErrorKind::InvalidValue(String::new()),
            }
        })
    });
    if let Some(e) = model_err {
        return Err(IngestError::Model(e));
    }
    result?;
    // Every node still unplaced was first seen on an I or V card, so
    // `kept_id` holds its info.
    let grid = builder
        .finish(|id| PgNode::from_info(names.kept.remove(&id).expect("unplaced nodes are kept")))?;
    if span.is_recording() {
        span.attr("nodes", grid.nodes.len());
        span.attr("segments", grid.segments.len());
        span.attr("loads", grid.loads.len());
        span.attr("pads", grid.pads.len());
    }
    Ok(grid)
}

/// Opens `path` and streams it through [`grid_from_spice_reader`]
/// behind a large file buffer — the bounded-memory front door for
/// on-disk netlists.
///
/// # Errors
///
/// See [`grid_from_spice_reader`]; opening the file can also fail
/// with [`IngestError::Io`].
pub fn grid_from_spice_path(path: impl AsRef<Path>) -> Result<PowerGrid, IngestError> {
    let file = File::open(path).map_err(IngestError::Io)?;
    grid_from_spice_reader(BufReader::with_capacity(FILE_BUF_BYTES, file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_spice::parse;
    use std::io::Cursor;

    fn materialized(src: &str) -> Result<PowerGrid, ModelError> {
        PowerGrid::from_netlist(&parse(src).expect("parses"))
    }

    fn streamed(src: &str) -> Result<PowerGrid, IngestError> {
        grid_from_spice_reader(Cursor::new(src))
    }

    #[test]
    fn matches_from_netlist_on_valid_designs() {
        let cases = [
            // Standard mix with coordinates, comments, continuations.
            "* hdr\nR1 n1_m1_0_0 n1_m1_2000_0 0.5\nR2 n1_m4_0_0 n1_m1_0_0 0.1\n\
             I1 n1_m1_2000_0 0 1m\nV1 n1_m4_0_0\n+ 0 1.1\n.end\n",
            // Reversed + floating current sources, pad-to-pad segment.
            "V1 p 0 1.0\nV2 q 0 1.0\nR1 p q 1.0\nR2 p a 1.0\nI1 0 a 2m\nI2 a b 1m\n",
            // Load on a node no resistor touches; grounded resistor leg.
            "V1 p 0 1.0\nR1 p a 1.0\nR2 a 0 5.0\nI1 zz 0 3m\n",
            // Self-loop resistor dropped; parallel segments kept.
            "V1 p 0 1.0\nR1 p a 2.0\nR2 p a 2.0\nR3 a a 9.0\nI1 a 0 1m\n",
            // Current source where both terminals are grid nodes: only
            // `from` carries the load.
            "V1 p 0 1.0\nR1 p a 1.0\nR2 p b 1.0\nI1 a b 4m\n",
        ];
        for src in cases {
            let want = materialized(src).expect("valid");
            let got = streamed(src).expect("valid");
            assert_eq!(want, got, "src={src:?}");
        }
    }

    #[test]
    fn node_interning_is_type_major_like_from_netlist() {
        // V1 names `late` before any resistor does, but from_netlist
        // interns resistors first — the streaming path must too.
        let src = "V1 late 0 1.0\nI1 early2 0 1m\nR1 late early 1.0\nR2 early early2 2.0\n";
        let want = materialized(src).expect("valid");
        let got = streamed(src).expect("valid");
        assert_eq!(want, got);
        let names: Vec<&str> = got.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["late", "early", "early2"]);
    }

    #[test]
    fn model_errors_match() {
        let cases = [
            "R1 a b 0\nV1 a 0 1.0\n",   // non-positive resistance
            "R1 a b -2\nV1 a 0 1.0\n",  // negative resistance
            "R1 a b 1.0\nV1 a b 1.0\n", // ungrounded source
            "R1 a b 1.0\nI1 a 0 1m\n",  // no pads
        ];
        for src in cases {
            let want = materialized(src).expect_err("invalid");
            match streamed(src) {
                Err(IngestError::Model(got)) => assert_eq!(want, got, "src={src:?}"),
                other => panic!("expected model error for {src:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_errors_surface_with_line_numbers() {
        match streamed("V1 p 0 1.0\nR1 p a zz\n") {
            Err(IngestError::Parse(e)) => assert_eq!(e.line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn path_ingest_roundtrips() {
        let src = "V1 p 0 1.0\nR1 p a 1.0\nI1 a 0 1m\n";
        let path = std::env::temp_dir().join("irf_pg_stream_test.sp");
        std::fs::write(&path, src).expect("writes");
        let got = grid_from_spice_path(&path).expect("valid");
        std::fs::remove_file(&path).ok();
        assert_eq!(got, materialized(src).expect("valid"));
    }

    #[test]
    fn streamed_grid_solves_like_materialized() {
        let src = "\
V1 n1_m4_0_0 0 1.0
R1 n1_m4_0_0 n1_m1_0_0 0.2
R2 n1_m1_0_0 n1_m1_1000_0 0.4
R3 n1_m1_1000_0 n1_m1_2000_0 0.4
I1 n1_m1_1000_0 0 2m
I2 n1_m1_2000_0 0 1m
";
        let a = materialized(src).expect("valid").build_system();
        let b = streamed(src).expect("valid").build_system();
        assert_eq!(a, b);
    }
}
