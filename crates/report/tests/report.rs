//! Integration tests for `topoopt-report`: serde round-trips, stable text
//! alignment, and markdown escaping.

use topoopt_report::{row, Cell, Column, ExperimentReport, ScaleInfo, Table};

fn sample_report() -> ExperimentReport {
    let mut table = Table::titled(
        "iteration time (s), 32 servers",
        vec![
            Column::text("model"),
            Column::int("servers"),
            Column::fixed("TopoOpt", 4),
            Column::sci("reconfig", 3),
        ],
    )
    .with_paper("TopoOpt within 10% of the ideal switch at 128 servers");
    table.push(row!["DLRM", 32usize, 0.012345, 1.15e-5]);
    table.push(row!["BERT-huge", 128usize, 1.5, 3.8e-9]);
    table.push(vec![Cell::Str("n/a row".into()), Cell::Int(-1), Cell::Empty, Cell::Empty]);

    let mut report = ExperimentReport::new().table(table).note("single-line note");
    report.id = "fig11_dedicated_d4".into();
    report.title = "Figure 11".into();
    report.section = "§5.3".into();
    report.scale = ScaleInfo { full: false, dedicated: 32, shared: 64, mcmc_iters: 100 };
    report.seed = u64::MAX;
    report
}

#[test]
fn report_round_trips_through_json() {
    let report = sample_report();
    let json = report.to_json();
    let back = ExperimentReport::from_json(&json).expect("artifact should parse");
    assert_eq!(back, report);
    // u64 seeds survive even above i64::MAX.
    assert_eq!(back.seed, u64::MAX);
    // Serializing again is byte-identical (deterministic artifacts).
    assert_eq!(back.to_json(), json);
}

#[test]
fn table_round_trips_all_cell_kinds() {
    let mut table = Table::new(vec![
        Column::text("a"),
        Column::int("b"),
        Column::fixed("c", 2),
        Column::text("d"),
    ]);
    table.push(vec![
        Cell::Str("x|y".into()),
        // i128 cells hold the full u64 range exactly.
        Cell::from(u64::MAX),
        Cell::Float(0.1),
        Cell::Empty,
    ]);
    table.push(vec![
        Cell::Str("min".into()),
        Cell::Int(i64::MIN as i128),
        Cell::Float(0.2),
        Cell::Empty,
    ]);
    let json = serde::json::to_string(&table);
    let back: Table = serde::json::from_str(&json).unwrap();
    assert_eq!(back, table);
}

#[test]
#[should_panic(expected = "row has 1 cells but table has 2 columns")]
fn arity_mismatch_panics() {
    let mut table = Table::new(vec![Column::text("a"), Column::text("b")]);
    table.push(row![1usize]);
}

#[test]
fn text_renderer_aligns_columns() {
    let text = sample_report().render_text();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "iteration time (s), 32 servers");
    // Header + 3 data rows share the same column boundaries: every cell of
    // a right-aligned column ends at the same byte offset.
    let header = lines[1];
    assert!(header.starts_with("model"));
    let servers_end = header.find("servers").unwrap() + "servers".len();
    for data in &lines[2..5] {
        let int_col = &data[..servers_end];
        assert!(
            int_col.trim_end().ends_with(|c: char| c.is_ascii_digit()),
            "right-aligned integer should end at column boundary: {data:?}"
        );
    }
    // Fixed and scientific formats are applied from column metadata.
    assert!(text.contains("0.0123"), "Fixed(4) formatting:\n{text}");
    assert!(text.contains("1.150e-5"), "Sci(3) formatting:\n{text}");
    assert!(text.contains("n/a"), "Empty cells render as n/a:\n{text}");
    assert!(text.contains("(paper: TopoOpt within 10%"));
    assert!(text.trim_end().ends_with("single-line note"));
    // Rendering is a pure function of the report.
    assert_eq!(text, sample_report().render_text());
}

#[test]
fn text_renderer_widens_columns_to_fit_cells() {
    let mut narrow = Table::new(vec![Column::text("m"), Column::int("n")]);
    narrow.push(row!["a-very-long-model-name", 1usize]);
    let report = ExperimentReport::new().table(narrow);
    let text = report.render_text();
    let lines: Vec<&str> = text.lines().collect();
    // Header pads out to the widest cell; both lines end flush on column 2.
    assert_eq!(lines[0].len(), lines[1].len());
    assert!(lines[1].starts_with("a-very-long-model-name"));
}

#[test]
fn markdown_escapes_cells_and_fences_multiline_notes() {
    let mut table = Table::new(vec![Column::text("label"), Column::int("x")]);
    table.push(row!["pipe | back\\slash", 7usize]);
    let report = ExperimentReport::new()
        .table(table)
        .note("one-liner with | pipe")
        .note("heatmap\n123\n456");
    let md = report.render_markdown();
    assert!(md.contains("| pipe \\| back\\\\slash | 7 |"), "cell escaping:\n{md}");
    assert!(md.contains("one-liner with \\| pipe"), "note escaping:\n{md}");
    assert!(md.contains("```text\nheatmap\n123\n456\n```"), "multi-line note fencing:\n{md}");
    // Alignment row: text column left, int column right.
    assert!(md.contains("| --- | ---: |"), "alignment markers:\n{md}");
}

#[test]
fn markdown_paper_reference_renders_italic() {
    let table = Table::new(vec![Column::int("x")]).with_paper("128-server result: 1.12s");
    let md = ExperimentReport::new().table(table).render_markdown();
    assert!(md.contains("*Paper: 128-server result: 1.12s*"));
}
