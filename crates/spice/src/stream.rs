//! Streaming SPICE ingest: parse from any [`BufRead`] source without
//! materializing the file. This is the only parse pipeline;
//! [`crate::parse`] runs it over an in-memory string.
//!
//! 1. [`ChunkReader`] cuts the input at card boundaries into owned
//!    chunks that live only until they are parsed.
//! 2. [`parse_reader`] pulls batches of a few dozen chunks, parses
//!    each batch in parallel, folds the results into the serial
//!    merger, and drops the batch. Peak memory is one batch of source
//!    text plus the growing [`Netlist`] — never the whole file.
//! 3. [`visit_cards`] is the card-visitor mode: instead of building a
//!    [`Netlist`], each parsed card is handed to a callback as it
//!    arrives, so `irf-pg` can build a grid with no netlist at all.
//!
//! # Determinism
//!
//! Chunk boundaries depend only on the bytes and the chunk size —
//! never on the thread count or the reader's buffer size — and the
//! merge is serial in source order. The [`Netlist`] (node-id
//! assignment, [`Netlist::content_hash`] and all) and the first error
//! with its line number are therefore the same for every chunk size,
//! batch size and thread count.

use crate::error::ParseError;
use crate::lexer::ChunkReader;
use crate::netlist::Netlist;
use crate::parser::{parse_chunk, CardKind, ChunkParse, Merger, CARDS_PER_CHUNK};
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// How many chunks a streaming batch holds before it is parsed and
/// dropped. Bounds resident source text to roughly
/// `CHUNKS_PER_BATCH * cards_per_chunk` cards (~1–2 MB at default
/// sizes) while still giving the parallel phase enough independent
/// chunks to spread across workers.
const CHUNKS_PER_BATCH: usize = 32;

/// Read-buffer capacity for [`parse_path`]: large enough that syscall
/// overhead vanishes on multi-hundred-MB netlists.
const FILE_BUF_BYTES: usize = 1 << 20;

/// Error from a streaming parse: either the underlying reader failed
/// or the SPICE text was malformed.
#[derive(Debug)]
pub enum StreamError {
    /// The reader returned an I/O error.
    Io(io::Error),
    /// The SPICE text failed to parse.
    Parse(ParseError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o error while reading netlist: {e}"),
            StreamError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<ParseError> for StreamError {
    fn from(e: ParseError) -> Self {
        StreamError::Parse(e)
    }
}

/// Drives the streaming pipeline: batches of owned chunks are parsed
/// in parallel, then handed to `sink` serially in source order.
/// Returns the chunk count.
fn drive<R: BufRead>(
    reader: R,
    cards_per_chunk: usize,
    chunks_per_batch: usize,
    mut sink: impl FnMut(ChunkParse<'_>) -> Result<(), ParseError>,
) -> Result<usize, StreamError> {
    let chunks_per_batch = chunks_per_batch.max(1);
    let mut chunker = ChunkReader::with_chunk_size(reader, cards_per_chunk);
    let mut total_chunks = 0usize;
    loop {
        let mut batch: Vec<(String, usize)> = Vec::with_capacity(chunks_per_batch);
        while batch.len() < chunks_per_batch {
            match chunker.next_chunk()? {
                Some(c) => batch.push(c),
                None => break,
            }
        }
        if batch.is_empty() {
            return Ok(total_chunks);
        }
        total_chunks += batch.len();
        let tasks: Vec<_> = batch
            .iter()
            .map(|(text, first_line)| move || parse_chunk(text, *first_line))
            .collect();
        for parsed in irf_runtime::par_map(tasks) {
            sink(parsed)?;
        }
        // `batch` (the only copy of this slice of source text) drops
        // here — resident source stays bounded by one batch.
    }
}

/// Reads SPICE text from `reader` and builds a [`Netlist`] without
/// ever holding the whole source in memory. Accepts exactly the cards
/// [`crate::parse`] documents.
///
/// # Errors
///
/// [`StreamError::Io`] when the reader fails (including non-UTF-8
/// input), [`StreamError::Parse`] for malformed SPICE.
pub fn parse_reader<R: BufRead>(reader: R) -> Result<Netlist, StreamError> {
    parse_reader_chunked(reader, CARDS_PER_CHUNK, CHUNKS_PER_BATCH)
}

/// [`parse_reader`] with explicit chunk and batch sizes — exposed so
/// tests and benches can force many small chunks and batches; results
/// are identical for every `cards_per_chunk >= 1` and
/// `chunks_per_batch >= 1`.
///
/// # Errors
///
/// See [`parse_reader`].
pub fn parse_reader_chunked<R: BufRead>(
    reader: R,
    cards_per_chunk: usize,
    chunks_per_batch: usize,
) -> Result<Netlist, StreamError> {
    let mut span = irf_trace::span("spice_parse");
    let mut merger = Merger::new();
    let n_chunks = drive(reader, cards_per_chunk, chunks_per_batch, |chunk| {
        merger.absorb(chunk)
    })?;
    let netlist = merger.finish();
    irf_trace::registry().counter_add("irf_spice_chunks_total", &[], n_chunks as f64);
    if span.is_recording() {
        span.attr("chunks", n_chunks);
        span.attr("resistors", netlist.resistors().len());
        span.attr("current_sources", netlist.current_sources().len());
        span.attr("voltage_sources", netlist.voltage_sources().len());
    }
    Ok(netlist)
}

/// Opens `path` and streams it through [`parse_reader`] behind a
/// large file buffer. This is the front door for
/// bigger-than-comfortable netlists on disk.
///
/// # Errors
///
/// See [`parse_reader`]; opening the file can also fail with
/// [`StreamError::Io`].
pub fn parse_path(path: impl AsRef<Path>) -> Result<Netlist, StreamError> {
    let file = File::open(path)?;
    parse_reader(BufReader::with_capacity(FILE_BUF_BYTES, file))
}

/// The element class of a [`StreamedCard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamedCardKind {
    /// An `R` card.
    Resistor,
    /// An `I` card (DC current source).
    CurrentSource,
    /// A `V` card (DC voltage source).
    VoltageSource,
}

/// One validated card handed to a [`visit_cards`] callback, fields
/// borrowing the transient chunk text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedCard<'a> {
    /// Which element class the card declares.
    pub kind: StreamedCardKind,
    /// The element name (e.g. `R17`), original case.
    pub name: &'a str,
    /// First node name (`plus` / `from` for sources).
    pub a: &'a str,
    /// Second node name (`minus` / `to` for sources).
    pub b: &'a str,
    /// The parsed numeric value (ohms / amps / volts).
    pub value: f64,
    /// 1-based source line the card starts on.
    pub line: usize,
}

/// Card-visitor mode: streams `reader`, validating and parsing every
/// card exactly like [`parse_reader`], but hands each card to `visit`
/// in source order instead of building a [`Netlist`]. This lets
/// `irf-pg` stamp MNA entries as cards arrive with no netlist in
/// memory at all.
///
/// Lexing/parsing still runs chunk-parallel; only the visitor walk is
/// serial, so card order is exactly source order.
///
/// Malformed cards (bad prefixes, missing fields, bad values,
/// dangling continuations) error with the same line numbers as
/// [`parse_reader`]. **Not** checked on this path: duplicate element
/// names, which require whole-file state — use [`parse_reader`] when
/// that validation matters, or track names in the visitor.
///
/// # Errors
///
/// [`StreamError::Io`] / [`StreamError::Parse`] as in
/// [`parse_reader`]; a `ParseError` returned by `visit` aborts the
/// stream and is surfaced as [`StreamError::Parse`].
pub fn visit_cards<R, F>(reader: R, mut visit: F) -> Result<(), StreamError>
where
    R: BufRead,
    F: FnMut(&StreamedCard<'_>) -> Result<(), ParseError>,
{
    let mut span = irf_trace::span("spice_visit_stream");
    let mut n_cards = 0usize;
    let n_chunks = drive(reader, CARDS_PER_CHUNK, CHUNKS_PER_BATCH, |chunk| {
        for card in &chunk.cards {
            let Some(value) = card.value else {
                return Err(ParseError {
                    line: card.line,
                    kind: crate::error::ParseErrorKind::InvalidValue(card.value_text.to_string()),
                });
            };
            let kind = match card.kind {
                CardKind::Resistor => StreamedCardKind::Resistor,
                CardKind::Current => StreamedCardKind::CurrentSource,
                CardKind::Voltage => StreamedCardKind::VoltageSource,
            };
            n_cards += 1;
            visit(&StreamedCard {
                kind,
                name: card.name,
                a: card.a,
                b: card.b,
                value,
                line: card.line,
            })?;
        }
        if let Some(error) = chunk.error {
            return Err(error);
        }
        Ok(())
    })?;
    irf_trace::registry().counter_add("irf_spice_chunks_total", &[], n_chunks as f64);
    if span.is_recording() {
        span.attr("chunks", n_chunks);
        span.attr("cards", n_cards);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseErrorKind;
    use crate::parse;
    use std::io::Cursor;

    const TRICKY: &str = "\
* header comment
R1 n1_m1_0_0 n1_m1_1000_0 0.5
R2 n1_m4_0_0 n1_m1_0_0 0.1 $ inline comment

I1 n1_m1_1000_0 0 1m ; other comment
V1 n1_m4_0_0 0 1.1
R3 a
+ b 2.5
.end
";

    #[test]
    fn streamed_netlist_is_bitwise_identical_to_batch() {
        // `parse` runs the default chunk and batch sizes.
        let batch = parse(TRICKY).expect("parses");
        for (cards, per_batch) in [(1, 1), (2, 3), (1024, 32)] {
            let streamed =
                parse_reader_chunked(Cursor::new(TRICKY), cards, per_batch).expect("streams");
            assert_eq!(batch, streamed);
            assert_eq!(batch.content_hash(), streamed.content_hash());
        }
    }

    #[test]
    fn streamed_errors_match_batch_line_numbers() {
        let cases = [
            "R1 a b 1\nR1 c d 2\n",        // duplicate
            "R1 a b zz\n",                 // bad value
            "C1 a b 1p\n",                 // unsupported
            "R1 a b 1\nR2 c\n",            // missing fields
            "+ oops\n",                    // dangling continuation
            "R1 a b 1\nR2 c\nR3 d e zz\n", // earliest error wins
        ];
        for src in cases {
            let want = parse(src).unwrap_err();
            let got = match parse_reader_chunked(Cursor::new(src), 1, 2) {
                Err(StreamError::Parse(e)) => e,
                other => panic!("expected parse error for {src:?}, got {other:?}"),
            };
            assert_eq!(want, got, "src={src:?}");
        }
    }

    #[test]
    fn parse_path_roundtrips_a_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("irf_spice_stream_test.sp");
        std::fs::write(&path, TRICKY).expect("writes");
        let streamed = parse_path(&path).expect("parses");
        std::fs::remove_file(&path).ok();
        assert_eq!(streamed, parse(TRICKY).expect("parses"));
    }

    #[test]
    fn visitor_sees_cards_in_source_order_with_values() {
        let mut seen = Vec::new();
        visit_cards(Cursor::new(TRICKY), |card| {
            seen.push((card.kind, card.name.to_string(), card.value, card.line));
            Ok(())
        })
        .expect("streams");
        assert_eq!(seen.len(), 5);
        assert_eq!(
            seen[0],
            (StreamedCardKind::Resistor, "R1".to_string(), 0.5, 2)
        );
        assert_eq!(seen[2].0, StreamedCardKind::CurrentSource);
        assert_eq!(seen[2].2, 1e-3);
        assert_eq!(seen[3].0, StreamedCardKind::VoltageSource);
        assert_eq!(
            seen[4],
            (StreamedCardKind::Resistor, "R3".to_string(), 2.5, 7)
        );
    }

    #[test]
    fn visitor_surfaces_errors_and_stops() {
        let mut count = 0usize;
        let err = visit_cards(Cursor::new("R1 a b 1\nR2 c d zz\nR3 e f 2\n"), |_| {
            count += 1;
            Ok(())
        })
        .unwrap_err();
        match err {
            StreamError::Parse(e) => {
                assert_eq!(e.line, 2);
                assert!(matches!(e.kind, ParseErrorKind::InvalidValue(_)));
            }
            StreamError::Io(e) => panic!("unexpected io error: {e}"),
        }
        assert_eq!(count, 1, "visitor must stop at the first error");
    }

    #[test]
    fn visitor_can_abort_with_its_own_error() {
        let err = visit_cards(Cursor::new("R1 a b 1\nR2 c d 2\n"), |card| {
            if card.name == "R2" {
                Err(ParseError {
                    line: card.line,
                    kind: ParseErrorKind::InvalidValue("visitor says no".into()),
                })
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        match err {
            StreamError::Parse(e) => assert_eq!(e.line, 2),
            StreamError::Io(e) => panic!("unexpected io error: {e}"),
        }
    }

    #[test]
    fn big_source_streams_identically_across_batch_sizes() {
        let mut src = String::from("* generated\nV1 n0 0 1.0\n");
        for i in 0..500 {
            src.push_str(&format!("R{i} n{i} n{} 0.5\n", i + 1));
            if i % 7 == 0 {
                src.push_str("* interleaved comment\n");
            }
        }
        src.push_str("I1 n250 0 2m\n.end\n");
        let batch = parse(&src).expect("parses");
        for (cards, per_batch) in [(3, 1), (16, 4), (1024, 32)] {
            let streamed =
                parse_reader_chunked(Cursor::new(&src), cards, per_batch).expect("streams");
            assert_eq!(batch, streamed, "cards={cards} per_batch={per_batch}");
            assert_eq!(batch.content_hash(), streamed.content_hash());
        }
    }
}
