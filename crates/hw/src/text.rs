//! Versioned on-disk text format for accelerator descriptions.
//!
//! ROADMAP item 4 asks for a new accelerator to be *a data file, zero Rust*.
//! This module is that file format: a minimal, hand-rolled TOML subset
//! (comments, `key = value` pairs, `[[section]]` array-of-table headers,
//! string/integer/float/array values — nothing else), parsed line by line so
//! every diagnostic carries the offending line number. Two document kinds
//! share the grammar, selected by the root `kind` key:
//!
//! * `kind = "accelerator"` — a complete [`AcceleratorDesc`], serialized with
//!   [`AcceleratorDesc::to_text`] and parsed with [`AcceleratorDesc::from_text`].
//! * `kind = "isa"` — the lower-level [`IsaDesc`] of
//!   primitive intrinsic shapes and load/store instructions;
//!   [`load_path`] derives the abstraction automatically
//!   (see [`derive_abstraction`]).
//!
//! Parsing never panics: every malformed input is a structured [`TextError`]
//! (unknown key, bad iteration kind, inconsistent operand/iteration
//! references, negative capacity, ...), and [`AcceleratorDesc::from_text`]
//! validates exactly the invariants that
//! [`AcceleratorDesc::build`] asserts, so a parsed description can always be
//! built. Serialization is deterministic, so the committed `data/accels/`
//! catalog can be held to the writer's layout (comment lines aside).
//!
//! Names that appear in *unquoted positions* of the grammar — the machine
//! name, iteration names and operand names inside `"Src1[i1, r1]"` strings —
//! must be identifiers (`[A-Za-z0-9_.-]+`); `to_text` assumes this and
//! `from_text` enforces it.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::desc::{AcceleratorDesc, IntrinsicDesc, IterDesc, LevelDesc, MemoryDesc, OperandDesc};
use crate::isa::{derive_abstraction, DeriveError, IsaDesc};
use amos_ir::{DType, IterKind, OpKind};

/// Version of the on-disk grammar; every document pins it via `format = N`.
pub const TEXT_FORMAT_VERSION: i64 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// What went wrong while parsing or validating a document.
#[derive(Debug, Clone, PartialEq)]
pub enum TextErrorKind {
    /// The line is not part of the grammar (stray text, unterminated string,
    /// malformed header, ...).
    Syntax(String),
    /// A key the schema does not know, at its defining line.
    UnknownKey(String),
    /// A `[[section]]` the schema does not know.
    UnknownSection(String),
    /// The same key given twice in one section.
    DuplicateKey(String),
    /// A required key missing from a section (reported at the section
    /// header, or line 1 for root keys).
    MissingKey(String),
    /// A key whose value has the wrong type or an out-of-range value.
    BadValue {
        /// The offending key.
        key: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// An iteration kind other than `spatial` / `reduction`.
    BadIterKind(String),
    /// An operand index referencing an iteration the intrinsic never
    /// declared.
    UnknownIter {
        /// Operand whose index is broken.
        operand: String,
        /// The unresolvable iteration name.
        iter: String,
    },
    /// The document declares `format = N` for an `N` this build cannot read.
    UnsupportedFormat(i64),
    /// A cross-key consistency violation (no levels, arity mismatch, ...).
    Invalid(String),
}

/// A parse/validation diagnostic with the 1-based line it points at.
#[derive(Debug, Clone, PartialEq)]
pub struct TextError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// The diagnostic itself.
    pub kind: TextErrorKind,
}

impl TextError {
    fn new(line: usize, kind: TextErrorKind) -> Self {
        TextError { line, kind }
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            TextErrorKind::Syntax(msg) => write!(f, "{msg}"),
            TextErrorKind::UnknownKey(key) => write!(f, "unknown key `{key}`"),
            TextErrorKind::UnknownSection(name) => write!(f, "unknown section `[[{name}]]`"),
            TextErrorKind::DuplicateKey(key) => write!(f, "duplicate key `{key}`"),
            TextErrorKind::MissingKey(key) => write!(f, "missing required key `{key}`"),
            TextErrorKind::BadValue { key, reason } => write!(f, "bad value for `{key}`: {reason}"),
            TextErrorKind::BadIterKind(kind) => write!(
                f,
                "bad iteration kind `{kind}` (expected `spatial` or `reduction`)"
            ),
            TextErrorKind::UnknownIter { operand, iter } => write!(
                f,
                "operand `{operand}` references unknown iteration `{iter}`"
            ),
            TextErrorKind::UnsupportedFormat(v) => write!(
                f,
                "unsupported format version {v} (this build reads format {TEXT_FORMAT_VERSION})"
            ),
            TextErrorKind::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for TextError {}

/// A failure attributable to one accelerator file.
#[derive(Debug, Clone, PartialEq)]
pub enum AccelError {
    /// Parse or validation failure inside the file.
    Text(TextError),
    /// The file is a valid ISA description, but the derivation pass rejected
    /// it.
    Derive(DeriveError),
    /// Two files in one directory define the same machine name.
    Duplicate {
        /// The machine name defined twice.
        name: String,
        /// The earlier file that already defined it.
        earlier: PathBuf,
    },
    /// The file (or directory) could not be read.
    Io(String),
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::Text(e) => write!(f, "{e}"),
            AccelError::Derive(e) => write!(f, "derivation failed: {e}"),
            AccelError::Duplicate { name, earlier } => write!(
                f,
                "machine `{name}` already defined by {}",
                earlier.display()
            ),
            AccelError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AccelError {}

/// An [`AccelError`] tagged with the file it came from — the payload of
/// `AmosErrorKind::Accel` in `amos-core`.
#[derive(Debug, Clone, PartialEq)]
pub struct FileError {
    /// The offending file (or directory, for I/O failures).
    pub file: PathBuf,
    /// What went wrong.
    pub error: AccelError,
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.error {
            // "<file>:<line>: <msg>" so editors can jump to the diagnostic.
            AccelError::Text(e) => write!(f, "{}:{}: {}", self.file.display(), e.line, {
                // Strip the redundant "line N: " prefix of TextError's own
                // Display; the kind renders the message body.
                struct Kind<'a>(&'a TextError);
                impl fmt::Display for Kind<'_> {
                    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        let full = self.0.to_string();
                        let body = full
                            .split_once(": ")
                            .map(|(_, b)| b.to_string())
                            .unwrap_or(full);
                        write!(f, "{body}")
                    }
                }
                Kind(e)
            }),
            other => write!(f, "{}: {other}", self.file.display()),
        }
    }
}

impl std::error::Error for FileError {}

// ---------------------------------------------------------------------------
// Raw document layer
// ---------------------------------------------------------------------------

/// A parsed scalar or (flat) array value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    List(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::List(_) => "array",
        }
    }
}

#[derive(Debug)]
struct RawEntry {
    key: String,
    line: usize,
    value: Value,
}

#[derive(Debug)]
struct RawSection {
    /// Header name; empty for the root section.
    name: String,
    /// Line of the `[[...]]` header (1 for the root).
    line: usize,
    entries: Vec<RawEntry>,
}

#[derive(Debug)]
struct RawDoc {
    root: RawSection,
    sections: Vec<RawSection>,
}

fn syntax(line: usize, msg: impl Into<String>) -> TextError {
    TextError::new(line, TextErrorKind::Syntax(msg.into()))
}

/// Truncates `line` at the first `#` that is outside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn is_ident(text: &str) -> bool {
    !text.is_empty()
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

/// Splits an array body on commas that are outside string literals. A
/// trailing comma before `]` is allowed.
fn split_items(body: &str, line: usize) -> Result<Vec<&str>, TextError> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_str {
        return Err(syntax(line, "unterminated string in array"));
    }
    // A blank tail is either an empty array body or a trailing comma.
    let tail = &body[start..];
    if !tail.trim().is_empty() {
        items.push(tail);
    }
    Ok(items)
}

fn parse_scalar(text: &str, line: usize) -> Result<Value, TextError> {
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| syntax(line, "unterminated string"))?;
        if inner.contains('"') {
            return Err(syntax(line, "strings cannot contain `\"`"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    if let Ok(i) = text.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    // Reject the textual infinities/NaN `f64::from_str` would accept; the
    // grammar only has finite decimal literals.
    if text
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
    {
        if let Ok(f) = text.parse::<f64>() {
            if f.is_finite() {
                return Ok(Value::Float(f));
            }
        }
    }
    Err(syntax(
        line,
        format!("`{text}` is not a string, number or array"),
    ))
}

fn parse_value(text: &str, line: usize) -> Result<Value, TextError> {
    if text.is_empty() {
        return Err(syntax(line, "missing value after `=`"));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let body = rest
            .strip_suffix(']')
            .ok_or_else(|| syntax(line, "unterminated array (expected `]`)"))?;
        let mut items = Vec::new();
        for item in split_items(body, line)? {
            let item = item.trim();
            if item.is_empty() {
                return Err(syntax(line, "empty element in array"));
            }
            if item.starts_with('[') {
                return Err(syntax(line, "nested arrays are not part of the subset"));
            }
            items.push(parse_scalar(item, line)?);
        }
        return Ok(Value::List(items));
    }
    parse_scalar(text, line)
}

fn parse_raw(text: &str) -> Result<RawDoc, TextError> {
    let mut doc = RawDoc {
        root: RawSection {
            name: String::new(),
            line: 1,
            entries: Vec::new(),
        },
        sections: Vec::new(),
    };
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let name = rest
                .strip_suffix("]]")
                .ok_or_else(|| syntax(line_no, "section header must be `[[name]]`"))?
                .trim();
            if !is_ident(name) {
                return Err(syntax(line_no, format!("bad section name `{name}`")));
            }
            doc.sections.push(RawSection {
                name: name.to_string(),
                line: line_no,
                entries: Vec::new(),
            });
        } else if line.starts_with('[') {
            return Err(syntax(
                line_no,
                "tables use `[[name]]` headers (single-bracket `[name]` is not part of the subset)",
            ));
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            if !is_ident(key) {
                return Err(syntax(line_no, format!("bad key `{key}`")));
            }
            let value = parse_value(value.trim(), line_no)?;
            let target = doc.sections.last_mut().unwrap_or(&mut doc.root);
            target.entries.push(RawEntry {
                key: key.to_string(),
                line: line_no,
                value,
            });
        } else {
            return Err(syntax(
                line_no,
                format!("expected `key = value` or `[[section]]`, got `{line}`"),
            ));
        }
    }
    Ok(doc)
}

// ---------------------------------------------------------------------------
// Schema layer: typed, consumed-key-tracked section reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    section: &'a RawSection,
    used: Vec<bool>,
}

impl<'a> Reader<'a> {
    fn new(section: &'a RawSection) -> Self {
        let used = vec![false; section.entries.len()];
        Reader { section, used }
    }

    /// The line a missing required key is reported at.
    fn anchor(&self) -> usize {
        self.section.line
    }

    fn take(&mut self, key: &str) -> Result<Option<(&'a Value, usize)>, TextError> {
        let mut found: Option<(usize, &'a RawEntry)> = None;
        for (i, entry) in self.section.entries.iter().enumerate() {
            if entry.key == key {
                if found.is_some() {
                    return Err(TextError::new(
                        entry.line,
                        TextErrorKind::DuplicateKey(key.to_string()),
                    ));
                }
                found = Some((i, entry));
            }
        }
        Ok(found.map(|(i, entry)| {
            self.used[i] = true;
            (&entry.value, entry.line)
        }))
    }

    fn require(&mut self, key: &str) -> Result<(&'a Value, usize), TextError> {
        self.take(key)?.ok_or_else(|| {
            TextError::new(self.anchor(), TextErrorKind::MissingKey(key.to_string()))
        })
    }

    fn bad(key: &str, line: usize, reason: impl Into<String>) -> TextError {
        TextError::new(
            line,
            TextErrorKind::BadValue {
                key: key.to_string(),
                reason: reason.into(),
            },
        )
    }

    fn str(&mut self, key: &str) -> Result<(String, usize), TextError> {
        match self.require(key)? {
            (Value::Str(s), line) => Ok((s.clone(), line)),
            (other, line) => Err(Self::bad(
                key,
                line,
                format!("expected a string, got {}", other.type_name()),
            )),
        }
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<(String, usize)>, TextError> {
        match self.take(key)? {
            None => Ok(None),
            Some((Value::Str(s), line)) => Ok(Some((s.clone(), line))),
            Some((other, line)) => Err(Self::bad(
                key,
                line,
                format!("expected a string, got {}", other.type_name()),
            )),
        }
    }

    fn int(&mut self, key: &str) -> Result<(i64, usize), TextError> {
        match self.require(key)? {
            (Value::Int(i), line) => Ok((*i, line)),
            (other, line) => Err(Self::bad(
                key,
                line,
                format!("expected an integer, got {}", other.type_name()),
            )),
        }
    }

    fn u64(&mut self, key: &str) -> Result<(u64, usize), TextError> {
        let (v, line) = self.int(key)?;
        u64::try_from(v)
            .map(|v| (v, line))
            .map_err(|_| Self::bad(key, line, "must be a non-negative integer"))
    }

    /// Float key; integer literals are accepted (Rust's shortest-round-trip
    /// `Display` prints `64.0` as `64`).
    fn float(&mut self, key: &str) -> Result<(f64, usize), TextError> {
        match self.require(key)? {
            (Value::Float(f), line) => Ok((*f, line)),
            (Value::Int(i), line) => Ok((*i as f64, line)),
            (other, line) => Err(Self::bad(
                key,
                line,
                format!("expected a number, got {}", other.type_name()),
            )),
        }
    }

    fn str_list(&mut self, key: &str) -> Result<(Vec<String>, usize), TextError> {
        match self.require(key)? {
            (Value::List(items), line) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Value::Str(s) => out.push(s.clone()),
                        other => {
                            return Err(Self::bad(
                                key,
                                line,
                                format!("expected an array of strings, got {}", other.type_name()),
                            ))
                        }
                    }
                }
                Ok((out, line))
            }
            (other, line) => Err(Self::bad(
                key,
                line,
                format!("expected an array, got {}", other.type_name()),
            )),
        }
    }

    fn opt_int_list(&mut self, key: &str) -> Result<Option<(Vec<i64>, usize)>, TextError> {
        match self.take(key)? {
            None => Ok(None),
            Some((Value::List(items), line)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Value::Int(i) => out.push(*i),
                        other => {
                            return Err(Self::bad(
                                key,
                                line,
                                format!("expected an array of integers, got {}", other.type_name()),
                            ))
                        }
                    }
                }
                Ok(Some((out, line)))
            }
            Some((other, line)) => Err(Self::bad(
                key,
                line,
                format!("expected an array, got {}", other.type_name()),
            )),
        }
    }

    /// Errors on the first key `take` never consumed.
    fn finish(&self) -> Result<(), TextError> {
        for (i, entry) in self.section.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(TextError::new(
                    entry.line,
                    TextErrorKind::UnknownKey(entry.key.clone()),
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shared vocabulary parsing
// ---------------------------------------------------------------------------

fn invalid(line: usize, msg: impl Into<String>) -> TextError {
    TextError::new(line, TextErrorKind::Invalid(msg.into()))
}

fn parse_op(text: &str, line: usize) -> Result<OpKind, TextError> {
    match text {
        "mul-acc" => Ok(OpKind::MulAcc),
        "add-acc" => Ok(OpKind::AddAcc),
        "max-acc" => Ok(OpKind::MaxAcc),
        other => Err(Reader::bad(
            "op",
            line,
            format!("unknown operation `{other}` (expected `mul-acc`, `add-acc` or `max-acc`)"),
        )),
    }
}

fn op_to_text(op: OpKind) -> &'static str {
    match op {
        OpKind::MulAcc => "mul-acc",
        OpKind::AddAcc => "add-acc",
        OpKind::MaxAcc => "max-acc",
    }
}

fn parse_dtype(key: &str, text: &str, line: usize) -> Result<DType, TextError> {
    match text {
        "f16" => Ok(DType::F16),
        "f32" => Ok(DType::F32),
        "i8" => Ok(DType::I8),
        "i32" => Ok(DType::I32),
        other => Err(Reader::bad(
            key,
            line,
            format!("unknown dtype `{other}` (expected `f16`, `f32`, `i8` or `i32`)"),
        )),
    }
}

/// Parses `"Name[i1, i2 + r1]"` against declared iteration names. `"Name[]"`
/// is a scalar operand.
fn parse_operand(
    text: &str,
    iter_names: &[&str],
    line: usize,
) -> Result<(String, Vec<Vec<usize>>), TextError> {
    let open = text.find('[').ok_or_else(|| {
        syntax(
            line,
            format!("operand `{text}` must look like `Name[i1, i2]`"),
        )
    })?;
    let name = text[..open].trim();
    if !is_ident(name) {
        return Err(syntax(line, format!("bad operand name `{name}`")));
    }
    let body = text[open + 1..]
        .strip_suffix(']')
        .ok_or_else(|| syntax(line, format!("operand `{text}` is missing a closing `]`")))?
        .trim();
    let mut dims = Vec::new();
    if !body.is_empty() {
        for dim in body.split(',') {
            let mut terms = Vec::new();
            for term in dim.split('+') {
                let term = term.trim();
                if term.is_empty() {
                    return Err(syntax(
                        line,
                        format!("operand `{name}` has an empty index term"),
                    ));
                }
                let pos = iter_names.iter().position(|&n| n == term).ok_or_else(|| {
                    TextError::new(
                        line,
                        TextErrorKind::UnknownIter {
                            operand: name.to_string(),
                            iter: term.to_string(),
                        },
                    )
                })?;
                terms.push(pos);
            }
            dims.push(terms);
        }
    }
    Ok((name.to_string(), dims))
}

fn operand_to_text(name: &str, index: &[Vec<usize>], iters: &[IterDesc]) -> String {
    let dims: Vec<String> = index
        .iter()
        .map(|terms| {
            terms
                .iter()
                .map(|&t| iters[t].name.as_str())
                .collect::<Vec<_>>()
                .join(" + ")
        })
        .collect();
    format!("{name}[{}]", dims.join(", "))
}

/// Formats an f64 with Rust's shortest-round-trip `Display` (re-parsing the
/// result yields the identical bits).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

// ---------------------------------------------------------------------------
// Root header
// ---------------------------------------------------------------------------

/// Which document kind a file declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// A full `AcceleratorDesc` document.
    Accelerator,
    /// A primitive `IsaDesc` document (needs the derivation pass).
    Isa,
}

struct RootHeader {
    kind: SourceKind,
    name: String,
    clock_ghz: f64,
    scalar_ops_per_core_cycle: f64,
}

fn read_root(reader: &mut Reader<'_>) -> Result<RootHeader, TextError> {
    let (format, fline) = reader.int("format")?;
    if format != TEXT_FORMAT_VERSION {
        return Err(TextError::new(
            fline,
            TextErrorKind::UnsupportedFormat(format),
        ));
    }
    let kind = match reader.opt_str("kind")? {
        None => SourceKind::Accelerator,
        Some((k, line)) => match k.as_str() {
            "accelerator" => SourceKind::Accelerator,
            "isa" => SourceKind::Isa,
            other => {
                return Err(Reader::bad(
                    "kind",
                    line,
                    format!("unknown kind `{other}` (expected `accelerator` or `isa`)"),
                ))
            }
        },
    };
    let (name, nline) = reader.str("name")?;
    if !is_ident(&name) {
        return Err(Reader::bad(
            "name",
            nline,
            "machine names are identifiers: letters, digits, `_`, `-`, `.`",
        ));
    }
    let (clock_ghz, cline) = reader.float("clock_ghz")?;
    if clock_ghz.is_nan() || clock_ghz <= 0.0 {
        return Err(Reader::bad("clock_ghz", cline, "must be positive"));
    }
    let (scalar_ops_per_core_cycle, sline) = reader.float("scalar_ops_per_core_cycle")?;
    if scalar_ops_per_core_cycle.is_nan() || scalar_ops_per_core_cycle <= 0.0 {
        return Err(Reader::bad(
            "scalar_ops_per_core_cycle",
            sline,
            "must be positive",
        ));
    }
    Ok(RootHeader {
        kind,
        name,
        clock_ghz,
        scalar_ops_per_core_cycle,
    })
}

fn parse_level(section: &RawSection) -> Result<LevelDesc, TextError> {
    let mut r = Reader::new(section);
    let (name, nline) = r.str("name")?;
    if name.is_empty() {
        return Err(Reader::bad("name", nline, "must not be empty"));
    }
    let (inner_units, iline) = r.u64("inner_units")?;
    if inner_units == 0 {
        return Err(Reader::bad("inner_units", iline, "must be at least 1"));
    }
    let (capacity_bytes, _cline) = r.u64("capacity_bytes")?;
    let (bytes_per_cycle, bline) = r.float("bytes_per_cycle")?;
    if bytes_per_cycle.is_nan() || bytes_per_cycle < 0.0 {
        return Err(Reader::bad(
            "bytes_per_cycle",
            bline,
            "must be non-negative",
        ));
    }
    r.finish()?;
    Ok(LevelDesc {
        name,
        inner_units,
        capacity_bytes,
        bytes_per_cycle,
    })
}

/// Parses one `"i1 spatial 16"` iteration spec.
fn parse_iter_spec(text: &str, line: usize) -> Result<IterDesc, TextError> {
    let fields: Vec<&str> = text.split_whitespace().collect();
    let [name, kind, extent] = fields[..] else {
        return Err(syntax(
            line,
            format!("iteration `{text}` must be `name kind extent` (e.g. `i1 spatial 16`)"),
        ));
    };
    if !is_ident(name) {
        return Err(syntax(line, format!("bad iteration name `{name}`")));
    }
    let kind = match kind {
        "spatial" => IterKind::Spatial,
        "reduction" => IterKind::Reduction,
        other => {
            return Err(TextError::new(
                line,
                TextErrorKind::BadIterKind(other.into()),
            ))
        }
    };
    let extent: i64 = extent.parse().map_err(|_| {
        Reader::bad(
            "iters",
            line,
            format!("extent `{extent}` is not an integer"),
        )
    })?;
    if extent <= 0 {
        return Err(invalid(
            line,
            format!("iteration `{name}` must have a positive extent, got {extent}"),
        ));
    }
    Ok(IterDesc {
        name: name.to_string(),
        extent,
        kind,
    })
}

fn check_unique_names<'n>(
    names: impl Iterator<Item = &'n str>,
    what: &str,
    line: usize,
) -> Result<(), TextError> {
    let mut seen: Vec<&str> = Vec::new();
    for name in names {
        if seen.contains(&name) {
            return Err(invalid(line, format!("duplicate {what} `{name}`")));
        }
        seen.push(name);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Accelerator-kind schema
// ---------------------------------------------------------------------------

fn parse_intrinsic(section: &RawSection) -> Result<IntrinsicDesc, TextError> {
    let mut r = Reader::new(section);
    let (name, nline) = r.str("name")?;
    if name.is_empty() {
        return Err(Reader::bad("name", nline, "must not be empty"));
    }
    let (op_text, oline) = r.str("op")?;
    let op = parse_op(&op_text, oline)?;

    let (iter_specs, iline) = r.str_list("iters")?;
    if iter_specs.is_empty() {
        return Err(invalid(iline, "an intrinsic needs at least one iteration"));
    }
    let mut iters = Vec::with_capacity(iter_specs.len());
    for spec in &iter_specs {
        iters.push(parse_iter_spec(spec, iline)?);
    }
    check_unique_names(iters.iter().map(|i| i.name.as_str()), "iteration", iline)?;
    let iter_names: Vec<&str> = iters.iter().map(|i| i.name.as_str()).collect();

    let (src_specs, sline) = r.str_list("srcs")?;
    if src_specs.len() != op.arity() {
        return Err(invalid(
            sline,
            format!(
                "operation `{op_text}` takes {} source(s), got {}",
                op.arity(),
                src_specs.len()
            ),
        ));
    }
    let mut srcs = Vec::with_capacity(src_specs.len());
    for spec in &src_specs {
        let (name, index) = parse_operand(spec, &iter_names, sline)?;
        srcs.push(OperandDesc { name, index });
    }
    let (dst_spec, dline) = r.str("dst")?;
    let (dst_name, dst_index) = parse_operand(&dst_spec, &iter_names, dline)?;
    let dst = OperandDesc {
        name: dst_name,
        index: dst_index,
    };
    check_unique_names(
        srcs.iter()
            .map(|s| s.name.as_str())
            .chain([dst.name.as_str()]),
        "operand",
        sline,
    )?;

    let (memory_text, mline) = r.str("memory")?;
    let load = r.opt_str("load")?;
    let store = r.opt_str("store")?;
    let memory = match memory_text.as_str() {
        "fragment" => {
            let (load, lline) = load.ok_or_else(|| {
                TextError::new(r.anchor(), TextErrorKind::MissingKey("load".into()))
            })?;
            let (store, stline) = store.ok_or_else(|| {
                TextError::new(r.anchor(), TextErrorKind::MissingKey("store".into()))
            })?;
            if load.is_empty() {
                return Err(Reader::bad("load", lline, "must not be empty"));
            }
            if store.is_empty() {
                return Err(Reader::bad("store", stline, "must not be empty"));
            }
            MemoryDesc::Fragment { load, store }
        }
        "implicit" => {
            if let Some((_, line)) = load.or(store) {
                return Err(invalid(
                    line,
                    "`implicit` memory takes no `load`/`store` instructions",
                ));
            }
            MemoryDesc::Implicit
        }
        other => {
            return Err(Reader::bad(
                "memory",
                mline,
                format!("unknown memory style `{other}` (expected `fragment` or `implicit`)"),
            ))
        }
    };

    let (latency, lline) = r.u64("latency")?;
    if latency == 0 {
        return Err(Reader::bad("latency", lline, "must be at least 1 cycle"));
    }
    let (initiation_interval, iiline) = r.u64("initiation_interval")?;
    if initiation_interval == 0 {
        return Err(Reader::bad(
            "initiation_interval",
            iiline,
            "must be at least 1 cycle",
        ));
    }
    if latency < initiation_interval {
        return Err(invalid(
            iiline,
            format!(
                "latency ({latency}) must be at least the initiation interval \
                 ({initiation_interval})"
            ),
        ));
    }
    let (src_dtype_text, sdline) = r.str("src_dtype")?;
    let src_dtype = parse_dtype("src_dtype", &src_dtype_text, sdline)?;
    let (acc_dtype_text, adline) = r.str("acc_dtype")?;
    let acc_dtype = parse_dtype("acc_dtype", &acc_dtype_text, adline)?;
    r.finish()?;

    Ok(IntrinsicDesc {
        name,
        iters,
        srcs,
        dst,
        op,
        memory,
        latency,
        initiation_interval,
        src_dtype,
        acc_dtype,
    })
}

fn validate_levels(levels: &[LevelDesc], first_line: usize) -> Result<(), TextError> {
    let innermost = &levels[0];
    if innermost.capacity_bytes == 0 {
        return Err(invalid(
            first_line,
            format!(
                "innermost level `{}` needs a nonzero capacity (fragments live there)",
                innermost.name
            ),
        ));
    }
    Ok(())
}

fn accelerator_from_doc(doc: &RawDoc) -> Result<AcceleratorDesc, TextError> {
    let mut root = Reader::new(&doc.root);
    let header = read_root(&mut root)?;
    root.finish()?;
    if header.kind != SourceKind::Accelerator {
        return Err(invalid(
            1,
            "this is an ISA description (`kind = \"isa\"`); derive it first \
             (`amos accel derive`) or load it through `Registry::load_dir`",
        ));
    }

    let mut levels = Vec::new();
    let mut first_level_line = 0;
    let mut intrinsics = Vec::new();
    for section in &doc.sections {
        match section.name.as_str() {
            "level" => {
                if levels.is_empty() {
                    first_level_line = section.line;
                }
                levels.push(parse_level(section)?);
            }
            "intrinsic" => intrinsics.push(parse_intrinsic(section)?),
            "intrinsic.load" | "intrinsic.store" => {
                return Err(TextError::new(
                    section.line,
                    TextErrorKind::UnknownSection(format!(
                        "{} (load/store sections belong to `kind = \"isa\"` documents)",
                        section.name
                    )),
                ));
            }
            other => {
                return Err(TextError::new(
                    section.line,
                    TextErrorKind::UnknownSection(other.to_string()),
                ));
            }
        }
    }
    if levels.is_empty() {
        return Err(invalid(1, "an accelerator needs at least one [[level]]"));
    }
    validate_levels(&levels, first_level_line)?;
    if intrinsics.is_empty() {
        return Err(invalid(
            1,
            "an accelerator needs at least one [[intrinsic]]",
        ));
    }
    check_unique_names(intrinsics.iter().map(|i| i.name.as_str()), "intrinsic", 1)?;

    Ok(AcceleratorDesc {
        name: header.name,
        levels,
        intrinsics,
        clock_ghz: header.clock_ghz,
        scalar_ops_per_core_cycle: header.scalar_ops_per_core_cycle,
    })
}

impl AcceleratorDesc {
    /// Serializes the description to the versioned text format.
    ///
    /// The output is deterministic and `from_text(to_text(d)) == d` for every
    /// description whose machine/iteration/operand names are identifiers
    /// (`[A-Za-z0-9_.-]+`) — which includes the whole built-in catalog.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("# AMOS accelerator description (text format 1).\n");
        s.push_str("# Validate with `amos accel lint`; load with `amos --accel-dir <dir>`.\n");
        s.push_str(&format!("format = {TEXT_FORMAT_VERSION}\n"));
        s.push_str("kind = \"accelerator\"\n");
        s.push_str(&format!("name = \"{}\"\n", self.name));
        s.push_str(&format!("clock_ghz = {}\n", fmt_f64(self.clock_ghz)));
        s.push_str(&format!(
            "scalar_ops_per_core_cycle = {}\n",
            fmt_f64(self.scalar_ops_per_core_cycle)
        ));
        for level in &self.levels {
            s.push_str("\n[[level]]\n");
            s.push_str(&format!("name = \"{}\"\n", level.name));
            s.push_str(&format!("inner_units = {}\n", level.inner_units));
            s.push_str(&format!("capacity_bytes = {}\n", level.capacity_bytes));
            s.push_str(&format!(
                "bytes_per_cycle = {}\n",
                fmt_f64(level.bytes_per_cycle)
            ));
        }
        for intr in &self.intrinsics {
            s.push_str("\n[[intrinsic]]\n");
            s.push_str(&format!("name = \"{}\"\n", intr.name));
            s.push_str(&format!("op = \"{}\"\n", op_to_text(intr.op)));
            let iters: Vec<String> = intr
                .iters
                .iter()
                .map(|it| format!("\"{} {} {}\"", it.name, it.kind, it.extent))
                .collect();
            s.push_str(&format!("iters = [{}]\n", iters.join(", ")));
            let srcs: Vec<String> = intr
                .srcs
                .iter()
                .map(|o| format!("\"{}\"", operand_to_text(&o.name, &o.index, &intr.iters)))
                .collect();
            s.push_str(&format!("srcs = [{}]\n", srcs.join(", ")));
            s.push_str(&format!(
                "dst = \"{}\"\n",
                operand_to_text(&intr.dst.name, &intr.dst.index, &intr.iters)
            ));
            match &intr.memory {
                MemoryDesc::Fragment { load, store } => {
                    s.push_str("memory = \"fragment\"\n");
                    s.push_str(&format!("load = \"{load}\"\n"));
                    s.push_str(&format!("store = \"{store}\"\n"));
                }
                MemoryDesc::Implicit => s.push_str("memory = \"implicit\"\n"),
            }
            s.push_str(&format!("latency = {}\n", intr.latency));
            s.push_str(&format!(
                "initiation_interval = {}\n",
                intr.initiation_interval
            ));
            s.push_str(&format!("src_dtype = \"{}\"\n", intr.src_dtype));
            s.push_str(&format!("acc_dtype = \"{}\"\n", intr.acc_dtype));
        }
        s
    }

    /// Parses a `kind = "accelerator"` document.
    ///
    /// Validates every invariant [`AcceleratorDesc::build`] asserts, so the
    /// returned description can always be built; never panics on malformed
    /// input.
    pub fn from_text(text: &str) -> Result<AcceleratorDesc, TextError> {
        accelerator_from_doc(&parse_raw(text)?)
    }
}

// ---------------------------------------------------------------------------
// ISA-kind schema (document shape; semantic types live in `crate::isa`)
// ---------------------------------------------------------------------------

use crate::isa::{IsaAccess, IsaIntrinsic, IsaLoop, IsaTransfer};

fn parse_isa_loop(text: &str, line: usize) -> Result<IsaLoop, TextError> {
    let fields: Vec<&str> = text.split_whitespace().collect();
    let [name, trip] = fields[..] else {
        return Err(syntax(
            line,
            format!("loop `{text}` must be `name trip` (e.g. `i1 16`)"),
        ));
    };
    if !is_ident(name) {
        return Err(syntax(line, format!("bad loop name `{name}`")));
    }
    let trip: i64 = trip
        .parse()
        .map_err(|_| Reader::bad("loops", line, format!("trip `{trip}` is not an integer")))?;
    if trip <= 0 {
        return Err(invalid(
            line,
            format!("loop `{name}` must have a positive trip count, got {trip}"),
        ));
    }
    Ok(IsaLoop {
        name: name.to_string(),
        trip,
    })
}

fn parse_transfer(section: &RawSection) -> Result<IsaTransfer, TextError> {
    let mut r = Reader::new(section);
    let (instruction, iline) = r.str("instruction")?;
    if instruction.is_empty() {
        return Err(Reader::bad("instruction", iline, "must not be empty"));
    }
    let (operand, _) = r.str("operand")?;
    let strides = r.opt_int_list("strides")?.map(|(s, _)| s);
    let base = r.opt_str("base")?.map(|(b, _)| b);
    r.finish()?;
    Ok(IsaTransfer {
        instruction,
        operand,
        strides,
        base,
    })
}

fn parse_isa_intrinsic(section: &RawSection) -> Result<IsaIntrinsic, TextError> {
    let mut r = Reader::new(section);
    let (name, nline) = r.str("name")?;
    if name.is_empty() {
        return Err(Reader::bad("name", nline, "must not be empty"));
    }
    let (op_text, oline) = r.str("op")?;
    let op = parse_op(&op_text, oline)?;

    let (loop_specs, lline) = r.str_list("loops")?;
    if loop_specs.is_empty() {
        return Err(invalid(lline, "an intrinsic needs at least one loop"));
    }
    let mut loops = Vec::with_capacity(loop_specs.len());
    for spec in &loop_specs {
        loops.push(parse_isa_loop(spec, lline)?);
    }
    check_unique_names(loops.iter().map(|l| l.name.as_str()), "loop", lline)?;
    let loop_names: Vec<&str> = loops.iter().map(|l| l.name.as_str()).collect();

    let (src_specs, sline) = r.str_list("srcs")?;
    if src_specs.len() != op.arity() {
        return Err(invalid(
            sline,
            format!(
                "operation `{op_text}` takes {} source(s), got {}",
                op.arity(),
                src_specs.len()
            ),
        ));
    }
    let mut srcs = Vec::with_capacity(src_specs.len());
    for spec in &src_specs {
        let (name, dims) = parse_operand(spec, &loop_names, sline)?;
        srcs.push(IsaAccess { name, dims });
    }
    let (dst_spec, dline) = r.str("dst")?;
    let (dst_name, dst_dims) = parse_operand(&dst_spec, &loop_names, dline)?;
    let dst = IsaAccess {
        name: dst_name,
        dims: dst_dims,
    };
    check_unique_names(
        srcs.iter()
            .map(|s| s.name.as_str())
            .chain([dst.name.as_str()]),
        "operand",
        sline,
    )?;

    let (latency, latline) = r.u64("latency")?;
    if latency == 0 {
        return Err(Reader::bad("latency", latline, "must be at least 1 cycle"));
    }
    let (initiation_interval, iiline) = r.u64("initiation_interval")?;
    if initiation_interval == 0 {
        return Err(Reader::bad(
            "initiation_interval",
            iiline,
            "must be at least 1 cycle",
        ));
    }
    if latency < initiation_interval {
        return Err(invalid(
            iiline,
            format!(
                "latency ({latency}) must be at least the initiation interval \
                 ({initiation_interval})"
            ),
        ));
    }
    let (src_dtype_text, sdline) = r.str("src_dtype")?;
    let src_dtype = parse_dtype("src_dtype", &src_dtype_text, sdline)?;
    let (acc_dtype_text, adline) = r.str("acc_dtype")?;
    let acc_dtype = parse_dtype("acc_dtype", &acc_dtype_text, adline)?;
    r.finish()?;

    Ok(IsaIntrinsic {
        name,
        op,
        loops,
        srcs,
        dst,
        loads: Vec::new(),
        store: None,
        latency,
        initiation_interval,
        src_dtype,
        acc_dtype,
    })
}

fn isa_from_doc(doc: &RawDoc) -> Result<IsaDesc, TextError> {
    let mut root = Reader::new(&doc.root);
    let header = read_root(&mut root)?;
    root.finish()?;
    if header.kind != SourceKind::Isa {
        return Err(invalid(
            1,
            "this is an accelerator description, not an ISA description \
             (`kind = \"isa\"`)",
        ));
    }

    let mut levels = Vec::new();
    let mut first_level_line = 0;
    let mut intrinsics: Vec<IsaIntrinsic> = Vec::new();
    for section in &doc.sections {
        match section.name.as_str() {
            "level" => {
                if levels.is_empty() {
                    first_level_line = section.line;
                }
                levels.push(parse_level(section)?);
            }
            "intrinsic" => intrinsics.push(parse_isa_intrinsic(section)?),
            "intrinsic.load" => {
                let Some(intr) = intrinsics.last_mut() else {
                    return Err(syntax(
                        section.line,
                        "[[intrinsic.load]] must follow an [[intrinsic]]",
                    ));
                };
                intr.loads.push(parse_transfer(section)?);
            }
            "intrinsic.store" => {
                let Some(intr) = intrinsics.last_mut() else {
                    return Err(syntax(
                        section.line,
                        "[[intrinsic.store]] must follow an [[intrinsic]]",
                    ));
                };
                if intr.store.is_some() {
                    return Err(invalid(
                        section.line,
                        format!("intrinsic `{}` already has a store", intr.name),
                    ));
                }
                intr.store = Some(parse_transfer(section)?);
            }
            other => {
                return Err(TextError::new(
                    section.line,
                    TextErrorKind::UnknownSection(other.to_string()),
                ));
            }
        }
    }
    if levels.is_empty() {
        return Err(invalid(
            1,
            "an ISA description needs at least one [[level]]",
        ));
    }
    validate_levels(&levels, first_level_line)?;
    if intrinsics.is_empty() {
        return Err(invalid(
            1,
            "an ISA description needs at least one [[intrinsic]]",
        ));
    }
    check_unique_names(intrinsics.iter().map(|i| i.name.as_str()), "intrinsic", 1)?;

    Ok(IsaDesc {
        name: header.name,
        levels,
        intrinsics,
        clock_ghz: header.clock_ghz,
        scalar_ops_per_core_cycle: header.scalar_ops_per_core_cycle,
    })
}

impl IsaDesc {
    /// Serializes the ISA description to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("# AMOS primitive ISA description (text format 1).\n");
        s.push_str("# Derive the hardware abstraction with `amos accel derive`.\n");
        s.push_str(&format!("format = {TEXT_FORMAT_VERSION}\n"));
        s.push_str("kind = \"isa\"\n");
        s.push_str(&format!("name = \"{}\"\n", self.name));
        s.push_str(&format!("clock_ghz = {}\n", fmt_f64(self.clock_ghz)));
        s.push_str(&format!(
            "scalar_ops_per_core_cycle = {}\n",
            fmt_f64(self.scalar_ops_per_core_cycle)
        ));
        for level in &self.levels {
            s.push_str("\n[[level]]\n");
            s.push_str(&format!("name = \"{}\"\n", level.name));
            s.push_str(&format!("inner_units = {}\n", level.inner_units));
            s.push_str(&format!("capacity_bytes = {}\n", level.capacity_bytes));
            s.push_str(&format!(
                "bytes_per_cycle = {}\n",
                fmt_f64(level.bytes_per_cycle)
            ));
        }
        for intr in &self.intrinsics {
            s.push_str("\n[[intrinsic]]\n");
            s.push_str(&format!("name = \"{}\"\n", intr.name));
            s.push_str(&format!("op = \"{}\"\n", op_to_text(intr.op)));
            let loops: Vec<String> = intr
                .loops
                .iter()
                .map(|l| format!("\"{} {}\"", l.name, l.trip))
                .collect();
            s.push_str(&format!("loops = [{}]\n", loops.join(", ")));
            let loop_descs: Vec<IterDesc> = intr
                .loops
                .iter()
                .map(|l| IterDesc::spatial(l.name.clone(), l.trip))
                .collect();
            let srcs: Vec<String> = intr
                .srcs
                .iter()
                .map(|a| format!("\"{}\"", operand_to_text(&a.name, &a.dims, &loop_descs)))
                .collect();
            s.push_str(&format!("srcs = [{}]\n", srcs.join(", ")));
            s.push_str(&format!(
                "dst = \"{}\"\n",
                operand_to_text(&intr.dst.name, &intr.dst.dims, &loop_descs)
            ));
            s.push_str(&format!("latency = {}\n", intr.latency));
            s.push_str(&format!(
                "initiation_interval = {}\n",
                intr.initiation_interval
            ));
            s.push_str(&format!("src_dtype = \"{}\"\n", intr.src_dtype));
            s.push_str(&format!("acc_dtype = \"{}\"\n", intr.acc_dtype));
            for transfer in &intr.loads {
                s.push_str("\n[[intrinsic.load]]\n");
                s.push_str(&transfer_to_text(transfer));
            }
            if let Some(store) = &intr.store {
                s.push_str("\n[[intrinsic.store]]\n");
                s.push_str(&transfer_to_text(store));
            }
        }
        s
    }

    /// Parses a `kind = "isa"` document; never panics on malformed input.
    pub fn from_text(text: &str) -> Result<IsaDesc, TextError> {
        isa_from_doc(&parse_raw(text)?)
    }
}

fn transfer_to_text(t: &IsaTransfer) -> String {
    let mut s = String::new();
    s.push_str(&format!("instruction = \"{}\"\n", t.instruction));
    s.push_str(&format!("operand = \"{}\"\n", t.operand));
    if let Some(strides) = &t.strides {
        let items: Vec<String> = strides.iter().map(|v| v.to_string()).collect();
        s.push_str(&format!("strides = [{}]\n", items.join(", ")));
    }
    if let Some(base) = &t.base {
        s.push_str(&format!("base = \"{base}\"\n"));
    }
    s
}

// ---------------------------------------------------------------------------
// File loading
// ---------------------------------------------------------------------------

/// A document parsed without knowing its kind in advance.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyDesc {
    /// A full accelerator description.
    Accelerator(AcceleratorDesc),
    /// A primitive ISA description.
    Isa(IsaDesc),
}

/// Parses either document kind, dispatching on the root `kind` key.
pub fn parse_any(text: &str) -> Result<AnyDesc, TextError> {
    let doc = parse_raw(text)?;
    let mut root = Reader::new(&doc.root);
    let header = read_root(&mut root)?;
    match header.kind {
        SourceKind::Accelerator => Ok(AnyDesc::Accelerator(accelerator_from_doc(&doc)?)),
        SourceKind::Isa => Ok(AnyDesc::Isa(isa_from_doc(&doc)?)),
    }
}

/// Files larger than this are rejected unread: the committed machines are
/// about 1 KiB, and a `--accel-dir` must not make the loader read gigabytes
/// before the parser sees a byte.
const MAX_FILE_BYTES: u64 = 1024 * 1024;

fn file_err(path: &Path, error: AccelError) -> FileError {
    FileError {
        file: path.to_path_buf(),
        error,
    }
}

/// Loads one accelerator file, running the derivation pass when the document
/// is a primitive ISA description. Returns the (possibly derived) description
/// and which kind the file declared.
pub fn load_path(path: &Path) -> Result<(AcceleratorDesc, SourceKind), FileError> {
    let io = |e: std::io::Error| file_err(path, AccelError::Io(e.to_string()));
    let len = std::fs::metadata(path).map_err(io)?.len();
    if len > MAX_FILE_BYTES {
        let msg = format!("{len} bytes exceeds the {MAX_FILE_BYTES}-byte limit for machine files");
        return Err(file_err(path, AccelError::Io(msg)));
    }
    let text = std::fs::read_to_string(path).map_err(io)?;
    match parse_any(&text).map_err(|e| file_err(path, AccelError::Text(e)))? {
        AnyDesc::Accelerator(desc) => Ok((desc, SourceKind::Accelerator)),
        AnyDesc::Isa(isa) => {
            let desc =
                derive_abstraction(&isa).map_err(|e| file_err(path, AccelError::Derive(e)))?;
            Ok((desc, SourceKind::Isa))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn catalog_round_trips_through_text() {
        for desc in catalog::descriptors() {
            let text = desc.to_text();
            let reparsed = AcceleratorDesc::from_text(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", desc.name));
            assert_eq!(reparsed, desc, "round-trip mismatch for {}", desc.name);
            // And the parsed desc builds the identical spec.
            assert_eq!(reparsed.build(), desc.build());
        }
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let text = catalog::descriptors()[0].to_text();
        let noisy: String = text
            .lines()
            .map(|l| format!("  {l}   # trailing comment\n\n"))
            .collect();
        assert_eq!(
            AcceleratorDesc::from_text(&noisy).unwrap(),
            catalog::descriptors()[0]
        );
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let mut desc = catalog::descriptors()[5].clone(); // mini
        desc.levels[0].name = "pe#0".into();
        let text = desc.to_text();
        assert_eq!(AcceleratorDesc::from_text(&text).unwrap(), desc);
    }

    #[test]
    fn unknown_key_reports_its_line() {
        let mut text = catalog::descriptors()[0].to_text();
        text.push_str("frobnicate = 3\n");
        let expected_line = text.lines().count();
        let err = AcceleratorDesc::from_text(&text).unwrap_err();
        assert_eq!(err.kind, TextErrorKind::UnknownKey("frobnicate".into()));
        assert_eq!(err.line, expected_line);
    }

    #[test]
    fn duplicate_key_reports_second_line() {
        let text = "format = 1\nname = \"a\"\nname = \"b\"\n";
        let err = AcceleratorDesc::from_text(text).unwrap_err();
        assert_eq!(err.kind, TextErrorKind::DuplicateKey("name".into()));
        assert_eq!(err.line, 3);
    }

    #[test]
    fn unsupported_format_version_is_rejected() {
        let err = AcceleratorDesc::from_text("format = 99\n").unwrap_err();
        assert_eq!(err.kind, TextErrorKind::UnsupportedFormat(99));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn missing_root_key_is_reported_at_line_1() {
        let err = AcceleratorDesc::from_text("format = 1\n").unwrap_err();
        assert_eq!(err.kind, TextErrorKind::MissingKey("name".into()));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn bad_iter_kind_is_a_dedicated_diagnostic() {
        let text = catalog::descriptors()[5]
            .to_text()
            .replacen(" spatial ", " sideways ", 1);
        let err = AcceleratorDesc::from_text(&text).unwrap_err();
        assert_eq!(err.kind, TextErrorKind::BadIterKind("sideways".into()));
    }

    #[test]
    fn unknown_iter_reference_names_operand_and_iter() {
        let mut text = catalog::descriptors()[5].to_text();
        text = text.replace("\"Src1[i1, r1]\"", "\"Src1[i1, bogus]\"");
        let err = AcceleratorDesc::from_text(&text).unwrap_err();
        assert_eq!(
            err.kind,
            TextErrorKind::UnknownIter {
                operand: "Src1".into(),
                iter: "bogus".into(),
            }
        );
    }

    #[test]
    fn negative_capacity_is_rejected() {
        let text: String = catalog::descriptors()[5]
            .to_text()
            .lines()
            .map(|l| {
                if l.starts_with("capacity_bytes = ") {
                    "capacity_bytes = -1\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let err = AcceleratorDesc::from_text(&text).unwrap_err();
        assert!(
            matches!(err.kind, TextErrorKind::BadValue { ref key, .. } if key == "capacity_bytes"),
            "{err}"
        );
    }

    #[test]
    fn zero_innermost_capacity_is_rejected_but_outer_is_fine() {
        // v100's `sub-core` level legitimately has capacity 0; only the
        // innermost level (where fragments live) must be nonzero.
        let v100 = catalog::descriptors()[0].clone();
        assert!(v100.levels.iter().skip(1).any(|l| l.capacity_bytes == 0));
        assert!(AcceleratorDesc::from_text(&v100.to_text()).is_ok());

        let mut broken = v100;
        broken.levels[0].capacity_bytes = 0;
        let err = AcceleratorDesc::from_text(&broken.to_text()).unwrap_err();
        assert!(matches!(err.kind, TextErrorKind::Invalid(_)), "{err}");
    }

    #[test]
    fn file_error_display_is_editor_clickable() {
        let err = FileError {
            file: PathBuf::from("data/accels/x.toml"),
            error: AccelError::Text(TextError::new(7, TextErrorKind::UnknownKey("frob".into()))),
        };
        assert_eq!(err.to_string(), "data/accels/x.toml:7: unknown key `frob`");
    }

    #[test]
    fn single_bracket_table_is_a_syntax_error() {
        let err = AcceleratorDesc::from_text("format = 1\n[level]\n").unwrap_err();
        assert!(matches!(err.kind, TextErrorKind::Syntax(_)));
        assert_eq!(err.line, 2);
    }
}
