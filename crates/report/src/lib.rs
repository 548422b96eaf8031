//! Structured experiment reports for the TopoOpt evaluation harness.
//!
//! Experiments *return data* instead of printing: each one builds an
//! [`ExperimentReport`] — metadata plus typed [`Table`]s — and renderers
//! decide presentation:
//!
//! - [`ExperimentReport::render_text`]: the aligned human-readable output
//!   the `reproduce` binary prints by default;
//! - [`ExperimentReport::render_markdown`]: the `EXPERIMENTS.md`
//!   paper-vs-measured index;
//! - [`ExperimentReport::to_json`] / [`ExperimentReport::from_json`]: the
//!   `BENCH_<id>.json` artifacts that make perf/accuracy trajectories
//!   diffable PR-over-PR.
//!
//! Cells are typed ([`Cell`]: int / float / string), so the JSON artifacts
//! stay machine-readable; formatting (fixed precision, scientific notation,
//! alignment) lives in the [`Column`] description, not in the data.

mod render;

use serde::{Deserialize, Serialize};

/// One typed table cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Cell {
    /// An integer (counts, sizes, batch sizes). `i128` so every workspace
    /// integer type (including `u64` seeds and byte counts) fits exactly.
    Int(i128),
    /// A float (seconds, bytes, ratios); display precision comes from the
    /// column's [`CellFormat`].
    Float(f64),
    /// Free text (model names, labels).
    Str(String),
    /// No value (e.g. a cost that is not commercially available); renders
    /// as `n/a`.
    Empty,
}

impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v as i128)
    }
}

impl From<i128> for Cell {
    fn from(v: i128) -> Self {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as i128)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v as i128)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Str(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Str(v)
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Cell::Empty)
    }
}

/// Build a row of [`Cell`]s from mixed-type expressions:
/// `row![kind.name(), 25.0, servers]`.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($crate::Cell::from($cell)),*]
    };
}

/// Horizontal alignment of a column (headers and cells alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Align {
    /// Flush left (text columns).
    Left,
    /// Flush right (numeric columns).
    Right,
}

/// How a column's numeric cells are formatted for display.
///
/// This is presentation metadata only — JSON artifacts always carry the
/// full-precision typed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellFormat {
    /// Rust `Display` (`{}`): integers, and floats at shortest round-trip
    /// precision.
    Display,
    /// Fixed decimal places (`{:.N}`).
    Fixed(u8),
    /// Scientific notation with `N` decimal places (`{:.Ne}`).
    Sci(u8),
}

/// A named, aligned, format-carrying table column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Header text.
    pub name: String,
    /// Alignment for the header and every cell.
    pub align: Align,
    /// Numeric display format for [`Cell::Float`] values.
    pub format: CellFormat,
}

impl Column {
    /// A left-aligned text column.
    pub fn text(name: impl Into<String>) -> Self {
        Column { name: name.into(), align: Align::Left, format: CellFormat::Display }
    }

    /// A right-aligned integer column.
    pub fn int(name: impl Into<String>) -> Self {
        Column { name: name.into(), align: Align::Right, format: CellFormat::Display }
    }

    /// A right-aligned fixed-precision float column.
    pub fn fixed(name: impl Into<String>, decimals: u8) -> Self {
        Column { name: name.into(), align: Align::Right, format: CellFormat::Fixed(decimals) }
    }

    /// A right-aligned scientific-notation float column.
    pub fn sci(name: impl Into<String>, decimals: u8) -> Self {
        Column { name: name.into(), align: Align::Right, format: CellFormat::Sci(decimals) }
    }
}

/// A typed table: named columns and rows of [`Cell`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Optional caption printed above the table.
    pub title: Option<String>,
    /// Column descriptions; every row must have exactly this many cells.
    pub columns: Vec<Column>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
    /// The paper's reported reference values for this table, when the
    /// reduced-scale run has a meaningful point of comparison.
    pub paper: Option<String>,
}

impl Table {
    /// An empty table with the given columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Table { title: None, columns, rows: Vec::new(), paper: None }
    }

    /// An empty captioned table with the given columns.
    pub fn titled(title: impl Into<String>, columns: Vec<Column>) -> Self {
        Table { title: Some(title.into()), columns, rows: Vec::new(), paper: None }
    }

    /// Attach the paper's reference values (builder style).
    pub fn with_paper(mut self, note: impl Into<String>) -> Self {
        self.paper = Some(note.into());
        self
    }

    /// Append one row.
    ///
    /// # Panics
    /// If the row's cell count does not match the column count.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row has {} cells but table has {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Append many rows (same arity check as [`Table::push`]).
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Vec<Cell>>) {
        for row in rows {
            self.push(row);
        }
    }
}

/// The cluster sizes an experiment ran at (paper scale or reduced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleInfo {
    /// True when run with `--full` (paper-scale sizes).
    pub full: bool,
    /// Dedicated-cluster server count (paper: 128).
    pub dedicated: usize,
    /// Shared-cluster server count (paper: 432).
    pub shared: usize,
    /// MCMC iterations in strategy-search runs.
    pub mcmc_iters: usize,
}

/// One experiment's results: identity, run metadata, typed tables, and
/// free-form notes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Registry id, e.g. `fig11_dedicated_d4`.
    pub id: String,
    /// Figure/table name in the paper, e.g. `Figure 11`.
    pub title: String,
    /// Paper section, e.g. `§5.3`.
    pub section: String,
    /// Cluster sizes the run used.
    pub scale: ScaleInfo,
    /// RNG seed threaded into sampling/MCMC experiments.
    pub seed: u64,
    /// Free-form notes, rendered after the tables. Multi-line notes (e.g.
    /// ASCII heatmaps) become code blocks in markdown.
    pub notes: Vec<String>,
    /// The experiment's tables.
    pub tables: Vec<Table>,
}

impl ExperimentReport {
    /// An empty report. The harness fills in identity and run metadata
    /// ([`ExperimentReport::id`], `title`, `section`, `scale`, `seed`)
    /// from its registry; builders only add content.
    pub fn new() -> Self {
        ExperimentReport {
            id: String::new(),
            title: String::new(),
            section: String::new(),
            scale: ScaleInfo { full: false, dedicated: 0, shared: 0, mcmc_iters: 0 },
            seed: 0,
            notes: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Append a table (builder style).
    pub fn table(mut self, table: Table) -> Self {
        self.tables.push(table);
        self
    }

    /// Append a note (builder style).
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Serialize to pretty JSON (the `BENCH_<id>.json` artifact format).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parse a report back from its JSON artifact.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde::json::from_str(text)
    }

    /// Render as aligned plain text (the `reproduce` default output).
    pub fn render_text(&self) -> String {
        render::text(self)
    }

    /// Render as a markdown fragment (tables + notes, no heading — the
    /// `EXPERIMENTS.md` generator adds per-experiment headings).
    pub fn render_markdown(&self) -> String {
        render::markdown(self)
    }
}

impl Default for ExperimentReport {
    fn default() -> Self {
        ExperimentReport::new()
    }
}
