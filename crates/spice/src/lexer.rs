//! Logical-line lexer: comments, blank lines and `+` continuations.
//!
//! Two layers:
//!
//! - [`ChunkReader`] cuts any [`BufRead`] source into owned chunks
//!   whose boundaries fall only on *card-start* lines (never inside a
//!   `+` continuation run), so chunks can be lexed independently and
//!   in parallel;
//! - [`logical_line_refs`] lexes one chunk into zero-copy
//!   [`LineRef`]s whose fields borrow the chunk text.

use std::io::{self, BufRead};

/// A logical netlist line whose fields borrow the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineRef<'a> {
    /// 1-based number of the first physical line.
    pub line: usize,
    /// Whitespace-separated fields of the merged card.
    pub fields: Vec<&'a str>,
}

/// `true` when a raw physical line *starts* a card: non-empty after
/// comment stripping, not a `*` comment, and not a `+` continuation.
fn is_card_start(raw: &str) -> bool {
    let body = raw.split(['$', ';']).next().unwrap_or("").trim();
    !body.is_empty() && !body.starts_with('*') && !body.starts_with('+')
}

/// Incremental card-boundary chunker over a [`BufRead`] source.
///
/// Yields owned `(text, first_line)` chunks of roughly
/// `cards_per_chunk` cards each. Cuts fall only at card-start lines,
/// so comments and `+` continuations travel with their card; the
/// trailing chunk is emitted even when it holds no card, and an empty
/// source yields no chunks. Lexing each chunk with
/// [`logical_line_refs`] (passing its `first_line`) yields exactly the
/// logical lines of the whole source, line numbers included.
///
/// The boundaries depend only on the bytes and `cards_per_chunk` —
/// never on the thread count or the reader's buffer size — which is
/// what keeps the parallel parse bitwise deterministic.
#[derive(Debug)]
pub struct ChunkReader<R> {
    reader: R,
    cards_per_chunk: usize,
    /// Text of the chunk currently accumulating.
    chunk: String,
    /// 1-based first physical line of the accumulating chunk.
    chunk_first_line: usize,
    cards_in_chunk: usize,
    /// Physical lines read so far.
    line_no: usize,
    /// Scratch for `read_line`.
    line: String,
    done: bool,
}

impl<R: BufRead> ChunkReader<R> {
    /// Wraps `reader` with the default chunk size the parser uses.
    pub fn new(reader: R) -> Self {
        Self::with_chunk_size(reader, crate::parser::CARDS_PER_CHUNK)
    }

    /// Wraps `reader` cutting chunks of roughly `cards_per_chunk`
    /// cards (minimum 1).
    pub fn with_chunk_size(reader: R, cards_per_chunk: usize) -> Self {
        ChunkReader {
            reader,
            cards_per_chunk: cards_per_chunk.max(1),
            chunk: String::new(),
            chunk_first_line: 1,
            cards_in_chunk: 0,
            line_no: 0,
            line: String::new(),
            done: false,
        }
    }

    /// Pulls the next chunk, or `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// Propagates reader errors. `read_line` also rejects non-UTF-8
    /// input with an `InvalidData` error.
    pub fn next_chunk(&mut self) -> io::Result<Option<(String, usize)>> {
        if self.done {
            return Ok(None);
        }
        loop {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line)?;
            if n == 0 {
                self.done = true;
                if self.chunk.is_empty() {
                    return Ok(None);
                }
                return Ok(Some((
                    std::mem::take(&mut self.chunk),
                    self.chunk_first_line,
                )));
            }
            self.line_no += 1;
            if is_card_start(&self.line) {
                if self.cards_in_chunk >= self.cards_per_chunk {
                    let out = (std::mem::take(&mut self.chunk), self.chunk_first_line);
                    self.chunk_first_line = self.line_no;
                    self.cards_in_chunk = 1;
                    self.chunk.push_str(&self.line);
                    return Ok(Some(out));
                }
                self.cards_in_chunk += 1;
            }
            self.chunk.push_str(&self.line);
        }
    }
}

/// Lexes SPICE source into zero-copy logical lines; physical line
/// numbers are offset by `first_line` (pass `1` for a whole source,
/// or a chunk's `first_line` from [`ChunkReader`]).
///
/// - `*`-prefixed lines and inline `$`/`;` comments are dropped;
/// - blank lines are skipped;
/// - a line starting with `+` continues the previous card;
/// - `\n` and `\r\n` line endings are both accepted.
///
/// A leading `+` with no previous card is reported by the parser as
/// [`DanglingContinuation`](crate::error::ParseErrorKind::DanglingContinuation);
/// here it surfaces as a line whose first field is `"+"`.
#[must_use]
pub fn logical_line_refs(src: &str, first_line: usize) -> Vec<LineRef<'_>> {
    let mut out: Vec<LineRef<'_>> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = first_line + idx;
        // Strip inline comments.
        let body = raw.split(['$', ';']).next().unwrap_or("").trim();
        if body.is_empty() || body.starts_with('*') {
            continue;
        }
        if let Some(rest) = body.strip_prefix('+') {
            match out.last_mut() {
                Some(prev) => {
                    prev.fields.extend(rest.split_whitespace());
                    continue;
                }
                None => {
                    // Surface the dangling continuation to the parser.
                    out.push(LineRef {
                        line: line_no,
                        fields: vec!["+"],
                    });
                    continue;
                }
            }
        }
        out.push(LineRef {
            line: line_no,
            fields: body.split_whitespace().collect(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(src: &str, cards_per_chunk: usize) -> Vec<(String, usize)> {
        let mut reader = ChunkReader::with_chunk_size(src.as_bytes(), cards_per_chunk);
        let mut out = Vec::new();
        while let Some(chunk) = reader.next_chunk().expect("no io errors") {
            out.push(chunk);
        }
        out
    }

    fn fields(src: &str) -> Vec<(usize, Vec<&str>)> {
        logical_line_refs(src, 1)
            .into_iter()
            .map(|l| (l.line, l.fields))
            .collect()
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        assert_eq!(
            fields("* header\n\nR1 a b 1.0\n"),
            vec![(3, vec!["R1", "a", "b", "1.0"])]
        );
    }

    #[test]
    fn continuations_merge() {
        assert_eq!(
            fields("R1 a\n+ b\n+ 1.0\n"),
            vec![(1, vec!["R1", "a", "b", "1.0"])]
        );
    }

    #[test]
    fn inline_comments_are_stripped() {
        let lines = logical_line_refs("R1 a b 1.0 $ segment 3\nI1 a 0 1m ; load\n", 1);
        assert_eq!(lines[0].fields.len(), 4);
        assert_eq!(lines[1].fields.len(), 4);
    }

    #[test]
    fn dangling_continuation_is_flagged() {
        let lines = logical_line_refs("+ oops\n", 1);
        assert_eq!(lines[0].fields[0], "+");
        // A leading continuation is a card-start for nobody: it rides
        // in the first chunk like a comment would.
        assert_eq!(chunks("+ dangling\n", 1), vec![("+ dangling\n".into(), 1)]);
    }

    #[test]
    fn chunks_cut_only_at_card_starts() {
        // The continuation and trailing comment must travel with R2.
        let src = "* hdr\nR1 a b 1\nR2 c\n+ d 2\n* tail\nR3 e f 3\n";
        assert_eq!(
            chunks(src, 1),
            vec![
                ("* hdr\nR1 a b 1\n".into(), 1),
                ("R2 c\n+ d 2\n* tail\n".into(), 3),
                ("R3 e f 3\n".into(), 6),
            ]
        );
        assert_eq!(
            chunks(src, 2),
            vec![
                ("* hdr\nR1 a b 1\nR2 c\n+ d 2\n* tail\n".into(), 1),
                ("R3 e f 3\n".into(), 6),
            ]
        );
        assert_eq!(chunks(src, 100), vec![(src.into(), 1)]);
        // A source with no card at all is one trailing chunk.
        let comments = "* only comments\n* here\n";
        assert_eq!(chunks(comments, 1), vec![(comments.into(), 1)]);
    }

    #[test]
    fn chunked_lexing_equals_whole_source_lexing() {
        let src = "* hdr\nR1 a b 1\n\nR2 c\n+ d 2 $ x\nI1 c 0 1m\n.end\n";
        let whole = logical_line_refs(src, 1);
        for cards in 1..=4 {
            let pieces = chunks(src, cards);
            let chunked: Vec<LineRef<'_>> = pieces
                .iter()
                .flat_map(|(text, first_line)| logical_line_refs(text, *first_line))
                .collect();
            assert_eq!(whole, chunked, "cards_per_chunk={cards}");
        }
    }

    #[test]
    fn chunking_handles_missing_trailing_newline() {
        assert_eq!(
            chunks("R1 a b 1\nR2 c d 2", 1),
            vec![("R1 a b 1\n".into(), 1), ("R2 c d 2".into(), 2)]
        );
    }

    #[test]
    fn crlf_lexes_like_lf() {
        let lf = "* hdr\nR1 a\n+ b 1\nI1 a 0 1m $ x\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(fields(lf), fields(&crlf));
        let cut: Vec<usize> = chunks(&crlf, 1).iter().map(|c| c.1).collect();
        assert_eq!(cut, vec![1, 4]);
    }

    #[test]
    fn empty_source_has_no_chunks() {
        assert!(chunks("", 8).is_empty());
    }
}
