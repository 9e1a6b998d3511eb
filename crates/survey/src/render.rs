//! The pluggable rendering pipeline: figures, the registry, and sinks.
//!
//! PR 1 made the *measurement* side pluggable ([`NameMetric`] → columnar
//! [`SurveyReport`]); this module does the same for the *output* side. A
//! [`Figure`] declares the column ids it needs and builds a
//! [`RenderedFigure`] from a report; a [`FigureRegistry`] holds figures,
//! checks each one's [`Figure::required_columns`] against
//! [`SurveyReport::column_ids`] **before** building — so a figure whose
//! metric was never registered is a typed skip ([`FigureOutcome::Skipped`]),
//! not a panic — and a [`ReportSink`] decides where rendered figures go
//! (stdout, one file per figure, any format). A custom metric ships its own
//! figure by implementing the two traits and registering both; neither the
//! engine nor the figures CLI needs to change.
//!
//! [`NameMetric`]: perils_core::NameMetric

use crate::engine::{ReportError, SurveyReport};
use perils_util::par;
use perils_util::table::Table;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A figure build failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FigureError {
    /// The report lacks columns the figure requires (its metric was not
    /// registered for the run).
    MissingColumns {
        /// The figure id.
        figure: String,
        /// The required column ids the report does not contain.
        missing: Vec<String>,
    },
    /// A column access failed while building (missing or wrong kind).
    Report(ReportError),
    /// The registry holds no figure with the requested id.
    UnknownFigure {
        /// The requested id.
        figure: String,
        /// Every id the registry does hold, in registration order.
        known: Vec<String>,
    },
}

impl From<ReportError> for FigureError {
    fn from(e: ReportError) -> FigureError {
        FigureError::Report(e)
    }
}

impl std::fmt::Display for FigureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FigureError::MissingColumns { figure, missing } => {
                write!(f, "figure {figure:?} requires absent columns {missing:?}")
            }
            FigureError::Report(e) => write!(f, "{e}"),
            FigureError::UnknownFigure { figure, known } => {
                write!(f, "unknown figure {figure:?}; registered: {known:?}")
            }
        }
    }
}

impl std::error::Error for FigureError {}

/// A renderable paper artifact: declares the report columns it consumes
/// and builds a [`RenderedFigure`] from them.
///
/// Implementations must read the report **only** through the `try_*`
/// accessors (or equivalently return [`FigureError`] on absence) so the
/// registry's column check stays the single source of skip decisions.
pub trait Figure: Send + Sync {
    /// Stable identifier (unique per registry; used for `--only` and file
    /// names).
    fn id(&self) -> &str;

    /// Human-readable title (the text rendering's first line).
    fn title(&self) -> &str;

    /// The column ids this figure reads. The registry skips the figure
    /// when any of them is absent from the report.
    fn required_columns(&self) -> &[&str];

    /// Builds the figure from a report whose schema satisfied
    /// [`Figure::required_columns`].
    fn build(&self, report: &SurveyReport) -> Result<RenderedFigure, FigureError>;
}

/// A fully built figure, ready to serialize into any [`SinkFormat`].
///
/// Holds the aligned-text rendering verbatim (figures predating the
/// registry keep their exact legacy output) plus the underlying data
/// table, from which CSV and JSON are derived.
#[derive(Debug, Clone)]
pub struct RenderedFigure {
    id: String,
    title: String,
    text: String,
    data: Table,
}

impl RenderedFigure {
    /// Wraps a rendered figure: `text` is the aligned-text form, `data`
    /// the flat data table behind the CSV/JSON forms.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        text: impl Into<String>,
        data: Table,
    ) -> RenderedFigure {
        RenderedFigure {
            id: id.into(),
            title: title.into(),
            text: text.into(),
            data,
        }
    }

    /// The figure id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The figure title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The aligned-text rendering.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The flat data table (CSV headers + rows).
    pub fn data(&self) -> &Table {
        &self.data
    }

    /// The CSV rendering of the data table.
    pub fn csv(&self) -> String {
        self.data.render_csv()
    }

    /// The JSON rendering: `{"id", "title", "columns", "rows"}` with every
    /// cell as a string (cells are formatted, not raw, values).
    pub fn json(&self) -> String {
        let mut out = String::from("{\"id\":");
        json_string(&mut out, &self.id);
        out.push_str(",\"title\":");
        json_string(&mut out, &self.title);
        out.push_str(",\"columns\":[");
        for (i, h) in self.data.headers().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, h);
        }
        out.push_str("],\"rows\":[");
        for (r, row) in self.data.rows().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push('[');
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_string(&mut out, cell);
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// A self-contained gnuplot script: the data table inlined as a
    /// `$data` here-doc block followed by a minimal `plot` command, so
    /// `gnuplot fig.gp` renders `<id>.png` with no side files. Every
    /// column is charted against the first; a non-numeric first column
    /// switches to categorical x tics.
    pub fn gnuplot(&self) -> String {
        let clean = |s: &str| s.replace(['\t', '\n'], " ");
        let headers = self.data.headers();
        let mut out = format!("# {} ({})\n$data << EOD\n", clean(&self.title), self.id);
        for (i, h) in headers.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            out.push_str(&clean(h));
        }
        out.push('\n');
        let mut numeric_x = true;
        for row in self.data.rows() {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push('\t');
                } else if cell.trim().parse::<f64>().is_err() {
                    numeric_x = false;
                }
                out.push_str(&clean(cell));
            }
            out.push('\n');
        }
        out.push_str("EOD\n");
        out.push_str("set datafile separator \"\\t\"\n");
        out.push_str("set term pngcairo size 960,600\n");
        let quoted = |s: &str| {
            format!(
                "\"{}\"",
                clean(s).replace('\\', "\\\\").replace('"', "\\\"")
            )
        };
        out.push_str(&format!(
            "set output {}\n",
            quoted(&format!("{}.png", self.id))
        ));
        out.push_str(&format!("set title {}\n", quoted(&self.title)));
        out.push_str("set key autotitle columnhead outside\n");
        out.push_str("set style data linespoints\n");
        if let Some(x) = headers.first() {
            out.push_str(&format!("set xlabel {}\n", quoted(x)));
        }
        let cols = headers.len();
        if cols >= 2 {
            if numeric_x {
                out.push_str(&format!("plot for [i=2:{cols}] $data using 1:i\n"));
            } else {
                out.push_str(&format!(
                    "set xtics rotate by -45\nplot for [i=2:{cols}] $data using i:xtic(1)\n"
                ));
            }
        } else {
            out.push_str("plot $data using 0:1\n");
        }
        out
    }

    /// A self-contained [Vega-Lite v5] spec: the data table inlined as
    /// `data.values` (cells that are valid JSON number tokens are
    /// spliced as JSON numbers, everything else stays a string),
    /// charted as a line plot of every
    /// column against the first. With more than two columns a `fold`
    /// transform melts them into one series axis colored by column name;
    /// a non-numeric first column switches the x encoding to ordinal and
    /// the mark to bars — the same form heuristic as the gnuplot sink.
    ///
    /// [Vega-Lite v5]: https://vega.github.io/vega-lite/
    pub fn vega(&self) -> String {
        let headers = self.data.headers();
        // The cell is spliced into the spec verbatim when "numeric", so
        // the check must be the JSON number *grammar*, not
        // `str::parse::<f64>` — the latter accepts `NaN`, `inf`, `1.`,
        // `.5`, `+2`, all of which would corrupt the emitted document.
        let numeric = |cell: &str| {
            matches!(
                perils_util::json::parse(cell.trim()),
                Ok(perils_util::json::Value::Number(_))
            )
        };
        let mut numeric_x = true;
        let mut out = String::from(
            "{\"$schema\":\"https://vega.github.io/schema/vega-lite/v5.json\",\"title\":",
        );
        json_string(&mut out, &self.title);
        out.push_str(",\"name\":");
        json_string(&mut out, &self.id);
        out.push_str(",\"data\":{\"values\":[");
        for (r, row) in self.data.rows().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push('{');
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_string(&mut out, headers.get(i).map(String::as_str).unwrap_or(""));
                out.push(':');
                if numeric(cell) {
                    out.push_str(cell.trim());
                } else {
                    if i == 0 {
                        numeric_x = false;
                    }
                    json_string(&mut out, cell);
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        let x_field = headers.first().map(String::as_str).unwrap_or("x");
        let x_type = if numeric_x { "quantitative" } else { "ordinal" };
        let mark = if numeric_x { "line" } else { "bar" };
        match headers.len() {
            0 | 1 => {
                // Degenerate single-column table: chart values by row index.
                out.push_str(",\"mark\":\"point\",\"encoding\":{\"y\":{\"field\":");
                json_string(&mut out, x_field);
                out.push_str(",\"type\":\"quantitative\"}}}");
            }
            2 => {
                out.push_str(&format!(
                    ",\"mark\":\"{mark}\",\"encoding\":{{\"x\":{{\"field\":"
                ));
                json_string(&mut out, x_field);
                out.push_str(&format!(",\"type\":\"{x_type}\"}},\"y\":{{\"field\":"));
                json_string(&mut out, &headers[1]);
                out.push_str(",\"type\":\"quantitative\"}}}");
            }
            _ => {
                // Melt columns 2..n into (key, value) pairs, one colored
                // series per original column.
                out.push_str(",\"transform\":[{\"fold\":[");
                for (i, h) in headers[1..].iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json_string(&mut out, h);
                }
                out.push_str(&format!(
                    "]}}],\"mark\":\"{mark}\",\"encoding\":{{\"x\":{{\"field\":"
                ));
                json_string(&mut out, x_field);
                out.push_str(&format!(
                    ",\"type\":\"{x_type}\"}},\"y\":{{\"field\":\"value\",\"type\":\"quantitative\"}},\
                     \"color\":{{\"field\":\"key\",\"type\":\"nominal\"}}}}}}"
                ));
            }
        }
        out
    }

    /// Serializes into `format`.
    pub fn emit(&self, format: SinkFormat) -> String {
        match format {
            SinkFormat::Text => self.text.clone(),
            SinkFormat::Csv => self.csv(),
            SinkFormat::Json => self.json(),
            SinkFormat::Gnuplot => self.gnuplot(),
            SinkFormat::Vega => self.vega(),
        }
    }
}

use perils_util::json::push_json_string as json_string;

/// The serialization a sink writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFormat {
    /// Aligned text tables (the EXPERIMENTS.md data source).
    Text,
    /// RFC4180-style CSV, one table per figure.
    Csv,
    /// One JSON object per figure.
    Json,
    /// One self-contained gnuplot script per figure (inline data block).
    Gnuplot,
    /// One self-contained Vega-Lite v5 spec per figure (inline data).
    Vega,
}

impl SinkFormat {
    /// Parses a `--format` argument.
    pub fn parse(s: &str) -> Option<SinkFormat> {
        match s {
            "text" => Some(SinkFormat::Text),
            "csv" => Some(SinkFormat::Csv),
            "json" => Some(SinkFormat::Json),
            "gnuplot" => Some(SinkFormat::Gnuplot),
            "vega" => Some(SinkFormat::Vega),
            _ => None,
        }
    }

    /// The file extension for directory sinks.
    pub fn extension(self) -> &'static str {
        match self {
            SinkFormat::Text => "txt",
            SinkFormat::Csv => "csv",
            SinkFormat::Json => "json",
            SinkFormat::Gnuplot => "gp",
            SinkFormat::Vega => "vl.json",
        }
    }
}

/// Where rendered figures go. `--csv DIR` is one implementation
/// ([`DirectorySink`] with [`SinkFormat::Csv`]); stdout is another.
pub trait ReportSink {
    /// Consumes one rendered figure.
    fn emit(&mut self, figure: &RenderedFigure) -> std::io::Result<()>;

    /// Flushes any buffered output (directory sinks are unbuffered; writer
    /// sinks flush the inner writer).
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams every figure to one writer (stdout, a file, a test buffer),
/// separated by blank lines in text mode.
pub struct WriterSink<W: Write> {
    writer: W,
    format: SinkFormat,
}

impl<W: Write> WriterSink<W> {
    /// Wraps `writer`, serializing as `format`.
    pub fn new(writer: W, format: SinkFormat) -> WriterSink<W> {
        WriterSink { writer, format }
    }
}

impl<W: Write> ReportSink for WriterSink<W> {
    fn emit(&mut self, figure: &RenderedFigure) -> std::io::Result<()> {
        let payload = figure.emit(self.format);
        self.writer.write_all(payload.as_bytes())?;
        // Text/CSV renderings end in one newline, JSON in none; one blank
        // separator keeps a concatenated stream readable and
        // line-delimited.
        writeln!(self.writer)
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

/// Writes one `<id>.<ext>` file per figure into a directory, creating the
/// directory (and parents) if missing.
pub struct DirectorySink {
    dir: PathBuf,
    format: SinkFormat,
    written: Vec<PathBuf>,
}

impl DirectorySink {
    /// Creates the sink; the directory is created on first emit.
    pub fn new(dir: impl Into<PathBuf>, format: SinkFormat) -> DirectorySink {
        DirectorySink {
            dir: dir.into(),
            format,
            written: Vec::new(),
        }
    }

    /// The files written so far.
    pub fn written(&self) -> &[PathBuf] {
        &self.written
    }

    /// The target directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl ReportSink for DirectorySink {
    fn emit(&mut self, figure: &RenderedFigure) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self
            .dir
            .join(format!("{}.{}", figure.id(), self.format.extension()));
        std::fs::write(&path, figure.emit(self.format))?;
        self.written.push(path);
        Ok(())
    }
}

/// Writes one `<id>.csv` file per figure, **streaming row-at-a-time**:
/// each row of the figure's data table goes through a bounded
/// [`std::io::BufWriter`] straight to disk, so no full-table CSV string
/// is ever materialized — the paper-scale CDF figures (hundreds of
/// thousands of rows) export with a flat memory profile. Output bytes
/// are identical to [`DirectorySink`] with [`SinkFormat::Csv`].
pub struct StreamingCsvSink {
    dir: PathBuf,
    written: Vec<PathBuf>,
}

impl StreamingCsvSink {
    /// Creates the sink; the directory is created on first emit.
    pub fn new(dir: impl Into<PathBuf>) -> StreamingCsvSink {
        StreamingCsvSink {
            dir: dir.into(),
            written: Vec::new(),
        }
    }

    /// The files written so far.
    pub fn written(&self) -> &[PathBuf] {
        &self.written
    }

    /// The target directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl ReportSink for StreamingCsvSink {
    fn emit(&mut self, figure: &RenderedFigure) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{}.csv", figure.id()));
        let file = std::fs::File::create(&path)?;
        let mut writer = std::io::BufWriter::new(file);
        figure.data().write_csv(&mut writer)?;
        writer.flush()?;
        self.written.push(path);
        Ok(())
    }
}

/// The per-figure result of a registry pass over one report.
#[derive(Debug)]
pub enum FigureOutcome {
    /// The figure built successfully.
    Rendered(RenderedFigure),
    /// The report lacks required columns; the figure was not built.
    Skipped {
        /// The figure id.
        id: String,
        /// The absent column ids.
        missing: Vec<String>,
    },
    /// The column check passed but the build still failed.
    Failed {
        /// The figure id.
        id: String,
        /// The failure.
        error: FigureError,
    },
}

impl FigureOutcome {
    /// The id of the figure this outcome belongs to.
    pub fn id(&self) -> &str {
        match self {
            FigureOutcome::Rendered(f) => f.id(),
            FigureOutcome::Skipped { id, .. } | FigureOutcome::Failed { id, .. } => id,
        }
    }

    /// The rendered figure, when the build succeeded.
    pub fn rendered(&self) -> Option<&RenderedFigure> {
        match self {
            FigureOutcome::Rendered(f) => Some(f),
            _ => None,
        }
    }
}

/// An ordered collection of figures keyed by id, with column-schema
/// checking. Registration order is presentation order.
#[derive(Default)]
pub struct FigureRegistry {
    figures: Vec<Box<dyn Figure>>,
}

impl FigureRegistry {
    /// An empty registry.
    pub fn new() -> FigureRegistry {
        FigureRegistry::default()
    }

    /// Registers a figure.
    ///
    /// # Panics
    ///
    /// Panics when the figure's id collides with an already-registered
    /// figure (mirroring `Engine::register`).
    pub fn register(mut self, figure: impl Figure + 'static) -> FigureRegistry {
        assert!(
            !self.figures.iter().any(|f| f.id() == figure.id()),
            "duplicate figure id {:?}",
            figure.id()
        );
        self.figures.push(Box::new(figure));
        self
    }

    /// Number of registered figures.
    pub fn len(&self) -> usize {
        self.figures.len()
    }

    /// True when no figure is registered.
    pub fn is_empty(&self) -> bool {
        self.figures.is_empty()
    }

    /// The registered figures, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Figure> {
        self.figures.iter().map(Box::as_ref)
    }

    /// The registered figure ids, in registration order.
    pub fn ids(&self) -> Vec<&str> {
        self.figures.iter().map(|f| f.id()).collect()
    }

    /// Looks up a figure by id.
    pub fn get(&self, id: &str) -> Option<&dyn Figure> {
        self.figures.iter().find(|f| f.id() == id).map(Box::as_ref)
    }

    /// The required columns of `figure` that `report` does not contain.
    pub fn missing_columns(figure: &dyn Figure, report: &SurveyReport) -> Vec<String> {
        figure
            .required_columns()
            .iter()
            .filter(|&&c| report.column(c).is_none())
            .map(|&c| c.to_string())
            .collect()
    }

    /// Builds one figure by id, checking its required columns first.
    pub fn build(&self, id: &str, report: &SurveyReport) -> Result<RenderedFigure, FigureError> {
        let figure = self.get(id).ok_or_else(|| self.unknown(id))?;
        let missing = FigureRegistry::missing_columns(figure, report);
        if !missing.is_empty() {
            return Err(FigureError::MissingColumns {
                figure: id.to_string(),
                missing,
            });
        }
        figure.build(report)
    }

    /// Builds one figure by id as an outcome, like one entry of
    /// [`FigureRegistry::build_all`]: missing columns are a skip, and a
    /// failed build or an unknown id is a failure.
    pub fn outcome(&self, id: &str, report: &SurveyReport) -> FigureOutcome {
        match self.get(id) {
            Some(figure) => FigureRegistry::outcome_of(figure, report),
            None => FigureOutcome::Failed {
                id: id.to_string(),
                error: self.unknown(id),
            },
        }
    }

    fn unknown(&self, id: &str) -> FigureError {
        FigureError::UnknownFigure {
            figure: id.to_string(),
            known: self.ids().iter().map(|s| s.to_string()).collect(),
        }
    }

    fn outcome_of(figure: &dyn Figure, report: &SurveyReport) -> FigureOutcome {
        let missing = FigureRegistry::missing_columns(figure, report);
        if !missing.is_empty() {
            return FigureOutcome::Skipped {
                id: figure.id().to_string(),
                missing,
            };
        }
        match figure.build(report) {
            Ok(rendered) => FigureOutcome::Rendered(rendered),
            Err(error) => FigureOutcome::Failed {
                id: figure.id().to_string(),
                error,
            },
        }
    }

    /// Builds every registered figure against `report`, returning outcomes
    /// in registration order. Figures whose required columns are absent
    /// become [`FigureOutcome::Skipped`]; build failures become
    /// [`FigureOutcome::Failed`]. Never panics on schema mismatches.
    ///
    /// Figures are independent of each other (each reads only the shared
    /// report), so they build **in parallel**: each worker takes a
    /// contiguous run of figures in registration order, and the runs are
    /// joined in order, so the result (and any sink fed from it) is
    /// identical to a sequential pass.
    pub fn build_all(&self, report: &SurveyReport) -> Vec<FigureOutcome> {
        let figures = &self.figures;
        par::map_ranges(figures.len(), par::threads(None).min(8), |run| {
            figures[run]
                .iter()
                .map(|figure| FigureRegistry::outcome_of(figure.as_ref(), report))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnalysisWorld, Engine};
    use perils_core::universe::Universe;

    struct NeedsGhostColumn;

    impl Figure for NeedsGhostColumn {
        fn id(&self) -> &str {
            "ghost"
        }
        fn title(&self) -> &str {
            "Ghost"
        }
        fn required_columns(&self) -> &[&str] {
            &["no_such_column"]
        }
        fn build(&self, report: &SurveyReport) -> Result<RenderedFigure, FigureError> {
            let _ = report.try_counts("no_such_column")?;
            unreachable!("the registry must skip before building")
        }
    }

    fn empty_report() -> SurveyReport {
        Engine::with_builtin_metrics()
            .run_world(AnalysisWorld::from_targets(Universe::default(), vec![]))
    }

    #[test]
    fn missing_columns_become_skips_not_panics() {
        let registry = FigureRegistry::new().register(NeedsGhostColumn);
        let outcomes = registry.build_all(&empty_report());
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0] {
            FigureOutcome::Skipped { id, missing } => {
                assert_eq!(id, "ghost");
                assert_eq!(missing, &["no_such_column".to_string()]);
            }
            other => panic!("expected skip, got {other:?}"),
        }
    }

    #[test]
    fn build_by_id_reports_unknown_and_missing() {
        let registry = FigureRegistry::new().register(NeedsGhostColumn);
        let report = empty_report();
        match registry.build("nope", &report) {
            Err(FigureError::UnknownFigure { figure, known }) => {
                assert_eq!(figure, "nope");
                assert_eq!(known, vec!["ghost".to_string()]);
            }
            other => panic!("expected unknown-figure error, got {other:?}"),
        }
        assert!(matches!(
            registry.build("ghost", &report),
            Err(FigureError::MissingColumns { .. })
        ));
        // By-id outcomes map the same way `build_all` does.
        assert!(matches!(
            registry.outcome("ghost", &report),
            FigureOutcome::Skipped { id, .. } if id == "ghost"
        ));
        assert!(matches!(
            registry.outcome("nope", &report),
            FigureOutcome::Failed { id, error: FigureError::UnknownFigure { .. } } if id == "nope"
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate figure id")]
    fn duplicate_figure_rejected() {
        let _ = FigureRegistry::new()
            .register(NeedsGhostColumn)
            .register(NeedsGhostColumn);
    }

    #[test]
    fn rendered_figure_emits_all_formats() {
        let mut data = Table::new(vec!["x", "y"]);
        data.row(vec!["1", "a\"b"]);
        let fig = RenderedFigure::new("t", "Title", "Title\nbody\n", data);
        assert_eq!(fig.emit(SinkFormat::Text), "Title\nbody\n");
        assert_eq!(fig.emit(SinkFormat::Csv), "x,y\n1,\"a\"\"b\"\n");
        assert_eq!(
            fig.emit(SinkFormat::Json),
            "{\"id\":\"t\",\"title\":\"Title\",\"columns\":[\"x\",\"y\"],\"rows\":[[\"1\",\"a\\\"b\"]]}"
        );
    }

    #[test]
    fn writer_sink_separates_figures() {
        let fig = RenderedFigure::new("a", "A", "A\n", Table::new(vec!["x"]));
        let mut buffer = Vec::new();
        {
            let mut sink = WriterSink::new(&mut buffer, SinkFormat::Text);
            sink.emit(&fig).unwrap();
            sink.emit(&fig).unwrap();
            sink.finish().unwrap();
        }
        assert_eq!(String::from_utf8(buffer).unwrap(), "A\n\nA\n\n");
    }

    #[test]
    fn directory_sink_creates_missing_directories() {
        let dir = std::env::temp_dir().join(format!("perils-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("deep/figures");
        let mut sink = DirectorySink::new(&nested, SinkFormat::Json);
        let fig = RenderedFigure::new("f", "F", "F\n", Table::new(vec!["x"]));
        sink.emit(&fig).unwrap();
        assert_eq!(sink.written().len(), 1);
        let content = std::fs::read_to_string(nested.join("f.json")).unwrap();
        assert!(content.starts_with("{\"id\":\"f\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_csv_sink_matches_buffered_bytes() {
        let dir = std::env::temp_dir().join(format!("perils-stream-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut data = Table::new(vec!["x", "y"]);
        data.row(vec!["1", "a\"b"]);
        data.row(vec!["2", "plain"]);
        let fig = RenderedFigure::new("s", "S", "S\n", data);

        let mut streaming = StreamingCsvSink::new(dir.join("stream"));
        streaming.emit(&fig).unwrap();
        streaming.finish().unwrap();
        let mut buffered = DirectorySink::new(dir.join("buffered"), SinkFormat::Csv);
        buffered.emit(&fig).unwrap();

        let a = std::fs::read(dir.join("stream/s.csv")).unwrap();
        let b = std::fs::read(dir.join("buffered/s.csv")).unwrap();
        assert_eq!(a, b, "streaming and buffered CSV must be byte-identical");
        assert_eq!(streaming.written().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_build_all_preserves_registration_order() {
        struct Named(&'static str);
        impl Figure for Named {
            fn id(&self) -> &str {
                self.0
            }
            fn title(&self) -> &str {
                self.0
            }
            fn required_columns(&self) -> &[&str] {
                &[]
            }
            fn build(&self, _report: &SurveyReport) -> Result<RenderedFigure, FigureError> {
                Ok(RenderedFigure::new(
                    self.0,
                    self.0,
                    format!("{}\n", self.0),
                    Table::new(vec!["x"]),
                ))
            }
        }
        let registry = FigureRegistry::new()
            .register(Named("a"))
            .register(Named("b"))
            .register(Named("c"))
            .register(Named("d"))
            .register(Named("e"));
        let report = empty_report();
        for _ in 0..4 {
            let ids: Vec<String> = registry
                .build_all(&report)
                .iter()
                .map(|o| {
                    assert!(matches!(o, FigureOutcome::Rendered(_)));
                    o.id().to_string()
                })
                .collect();
            assert_eq!(ids, ["a", "b", "c", "d", "e"]);
        }
    }

    #[test]
    fn sink_format_parsing() {
        assert_eq!(SinkFormat::parse("text"), Some(SinkFormat::Text));
        assert_eq!(SinkFormat::parse("csv"), Some(SinkFormat::Csv));
        assert_eq!(SinkFormat::parse("json"), Some(SinkFormat::Json));
        assert_eq!(SinkFormat::parse("gnuplot"), Some(SinkFormat::Gnuplot));
        assert_eq!(SinkFormat::parse("vega"), Some(SinkFormat::Vega));
        assert_eq!(SinkFormat::parse("yaml"), None);
        assert_eq!(SinkFormat::Text.extension(), "txt");
        assert_eq!(SinkFormat::Gnuplot.extension(), "gp");
        assert_eq!(SinkFormat::Vega.extension(), "vl.json");
    }

    #[test]
    fn vega_spec_is_valid_json_with_inline_numeric_data() {
        use perils_util::json::{parse, Value};
        let mut data = Table::new(vec!["size", "count", "share"]);
        data.row(vec!["1", "10", "0.5"]);
        data.row(vec!["2", "4", "0.2"]);
        let fig = RenderedFigure::new("dist", "Size \"dist\"", "t\n", data);
        let spec = parse(&fig.emit(SinkFormat::Vega)).expect("vega spec parses");
        assert_eq!(
            spec.get("$schema").and_then(Value::as_str),
            Some("https://vega.github.io/schema/vega-lite/v5.json")
        );
        assert_eq!(
            spec.get("title").and_then(Value::as_str),
            Some("Size \"dist\"")
        );
        assert_eq!(spec.get("name").and_then(Value::as_str), Some("dist"));
        let values = spec
            .get("data")
            .and_then(|d| d.get("values"))
            .and_then(Value::as_array)
            .expect("inline data values");
        assert_eq!(values.len(), 2);
        // Numeric cells become JSON numbers, not strings.
        assert_eq!(values[0].get("size").and_then(Value::as_f64), Some(1.0));
        assert_eq!(values[1].get("share").and_then(Value::as_f64), Some(0.2));
        // Three columns: folded multi-series line chart on quantitative x.
        assert_eq!(spec.get("mark").and_then(Value::as_str), Some("line"));
        let fold = spec
            .get("transform")
            .and_then(Value::as_array)
            .and_then(|t| t[0].get("fold"))
            .and_then(Value::as_array)
            .expect("fold transform");
        assert_eq!(fold.len(), 2);
        assert_eq!(fold[0].as_str(), Some("count"));
        let x = spec
            .get("encoding")
            .and_then(|e| e.get("x"))
            .expect("x encoding");
        assert_eq!(x.get("type").and_then(Value::as_str), Some("quantitative"));
    }

    #[test]
    fn vega_quotes_float_lookalikes_that_are_not_json_numbers() {
        use perils_util::json::{parse, Value};
        // Every one of these parses as f64 but is not a JSON number
        // token; spliced verbatim they would make the spec unparseable.
        let mut data = Table::new(vec!["label", "value"]);
        for cell in ["NaN", "inf", "-inf", "1.", ".5", "+2"] {
            data.row(vec!["row", cell]);
        }
        data.row(vec!["row", "2.5"]);
        let fig = RenderedFigure::new("odd", "Odd cells", "t\n", data);
        let spec = parse(&fig.vega()).expect("spec stays valid JSON");
        let values = spec
            .get("data")
            .and_then(|d| d.get("values"))
            .and_then(Value::as_array)
            .expect("inline data values");
        for (row, cell) in ["NaN", "inf", "-inf", "1.", ".5", "+2"].iter().enumerate() {
            assert_eq!(
                values[row].get("value").and_then(Value::as_str),
                Some(*cell),
                "{cell} must be emitted as a quoted string"
            );
        }
        // A real JSON number still comes through as a number.
        assert_eq!(values[6].get("value").and_then(Value::as_f64), Some(2.5));
    }

    #[test]
    fn vega_spec_switches_to_bars_for_categorical_x() {
        use perils_util::json::{parse, Value};
        let mut data = Table::new(vec!["tld", "zones"]);
        data.row(vec!["com", "120"]);
        data.row(vec!["net", "35"]);
        let fig = RenderedFigure::new("tlds", "Zones per TLD", "t\n", data);
        let spec = parse(&fig.vega()).expect("vega spec parses");
        assert_eq!(spec.get("mark").and_then(Value::as_str), Some("bar"));
        let encoding = spec.get("encoding").expect("encoding");
        let x = encoding.get("x").expect("x");
        assert_eq!(x.get("field").and_then(Value::as_str), Some("tld"));
        assert_eq!(x.get("type").and_then(Value::as_str), Some("ordinal"));
        assert_eq!(
            encoding
                .get("y")
                .and_then(|y| y.get("field"))
                .and_then(Value::as_str),
            Some("zones")
        );
        // Two columns: no fold transform.
        assert_eq!(spec.get("transform"), None);
        // Categorical cells stay strings.
        let values = spec
            .get("data")
            .and_then(|d| d.get("values"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(values[0].get("tld").and_then(Value::as_str), Some("com"));
        assert_eq!(values[0].get("zones").and_then(Value::as_f64), Some(120.0));
    }

    #[test]
    fn gnuplot_script_inlines_data_and_plots_numeric_x() {
        let mut data = Table::new(vec!["size", "count", "share"]);
        data.row(vec!["1", "10", "0.5"]);
        data.row(vec!["2", "4", "0.2"]);
        let fig = RenderedFigure::new("dist", "Size \"dist\"", "t\n", data);
        let gp = fig.emit(SinkFormat::Gnuplot);
        assert!(gp.starts_with("# Size \"dist\" (dist)\n$data << EOD\n"));
        assert!(gp.contains("size\tcount\tshare\n1\t10\t0.5\n2\t4\t0.2\nEOD\n"));
        assert!(gp.contains("set output \"dist.png\""));
        assert!(gp.contains("set title \"Size \\\"dist\\\"\""));
        assert!(gp.contains("plot for [i=2:3] $data using 1:i"));
    }

    #[test]
    fn gnuplot_script_uses_category_tics_for_text_x() {
        let mut data = Table::new(vec!["tld", "zones"]);
        data.row(vec!["com", "120"]);
        data.row(vec!["net", "35"]);
        let fig = RenderedFigure::new("tlds", "Zones per TLD", "t\n", data);
        let gp = fig.gnuplot();
        assert!(gp.contains("plot for [i=2:2] $data using i:xtic(1)"));
    }
}
