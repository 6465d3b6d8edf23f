//! End-to-end reproduction of the paper's worked examples (Figures 2-4 and
//! the Family.Show abstract-type example) through the facade crate.

use pex::corpus::builtin;
use pex::prelude::*;

#[test]
fn figure2_resize_document_is_the_top_result() {
    let db = builtin::paint_dot_net();
    let (ctx, site) = builtin::paint_query_site(&db);
    let abs = AbsTypes::for_query(&db, site, usize::MAX);
    let index = MethodIndex::build(&db);
    let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), Some(&abs));
    let query = parse_partial(&db, &ctx, "?({img, size})").unwrap();

    let top = engine.complete(&query, 10);
    assert!(engine
        .render(&top[0])
        .contains("PaintDotNet.Actions.CanvasSizeAction.ResizeDocument(img, size, 0, 0)"));

    // The distractor set of Figure 2 appears in the list.
    let rendered: Vec<String> = top.iter().map(|c| engine.render(c)).collect();
    let all = rendered.join("\n");
    for expected in ["Pair.Create", "OnDeserialization", "Size.Equals"] {
        assert!(all.contains(expected), "missing {expected} in:\n{all}");
    }
    // Scores never decrease; all results derive from the query.
    for w in top.windows(2) {
        assert!(w[0].score <= w[1].score);
    }
    for c in &top {
        assert!(derives(&db, &ctx, &query, &c.expr), "{}", engine.render(c));
    }
}

#[test]
fn figure3_point_fillers_in_paper_order() {
    let db = builtin::dynamic_geometry();
    let ctx = builtin::geometry_fig3_context(&db);
    let index = MethodIndex::build(&db);
    let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
    let query = parse_partial(&db, &ctx, "Distance(point, ?)").unwrap();
    let top = engine.complete(&query, 10);
    let fillers: Vec<String> = top
        .iter()
        .map(|c| match &c.expr {
            Expr::Call(_, args) => {
                pex::model::render_expr(&db, &ctx, args.last().unwrap(), CallStyle::Receiver)
            }
            _ => unreachable!("known-call completions are calls"),
        })
        .collect();
    // The single local of type Point is first (it is the only zero-cost
    // completion); one-lookup chains come before two-lookup chains.
    assert_eq!(fillers[0], "point");
    let one_lookup = ["this.BeginLocation", "this.Center", "this.EndLocation"];
    for name in one_lookup {
        let pos = fillers.iter().position(|f| f == name).unwrap_or(usize::MAX);
        let deep = fillers
            .iter()
            .position(|f| f == "this.ArcShape.Point")
            .unwrap_or(usize::MAX);
        assert!(
            pos < deep,
            "{name} must rank above two-lookup chains: {fillers:?}"
        );
    }
    assert!(fillers.contains(&"DynamicGeometry.Math.InfinitePoint".to_string()));
    assert!(fillers.contains(&"shapeStyle.GetSampleGlyph().RenderTransformOrigin".to_string()));
}

#[test]
fn figure4_exact_top_ten() {
    let db = builtin::dynamic_geometry();
    let ctx = builtin::geometry_fig4_context(&db);
    let index = MethodIndex::build(&db);
    let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
    let query = parse_partial(&db, &ctx, "point.?*m >= this.?*m").unwrap();
    let rendered: Vec<String> = engine
        .complete(&query, 10)
        .iter()
        .map(|c| engine.render(c))
        .collect();
    // The paper's Figure 4 list, as a set split by score class: the eight
    // same-name completions (score 7) precede the two Length ones (8).
    let expected_first_eight = [
        "point.X >= this.P1.X",
        "point.X >= this.P2.X",
        "point.X >= this.Midpoint.X",
        "point.X >= this.FirstValidValue().X",
        "point.Y >= this.P1.Y",
        "point.Y >= this.P2.Y",
        "point.Y >= this.Midpoint.Y",
        "point.Y >= this.FirstValidValue().Y",
    ];
    for e in expected_first_eight {
        let pos = rendered.iter().position(|r| r == e);
        assert!(
            pos.is_some_and(|p| p < 8),
            "{e} should be in the top 8: {rendered:?}"
        );
    }
    assert!(
        rendered[8..].iter().all(|r| r.contains("this.Length")),
        "{rendered:?}"
    );
}

#[test]
fn family_show_abstract_types_separate_paths_from_names() {
    let db = builtin::family_show();
    let get_data_path = db
        .methods()
        .find(|m| db.method(*m).name() == "GetDataPath")
        .expect("corpus has GetDataPath");
    let abs = AbsTypes::for_query(&db, get_data_path, usize::MAX);
    let combine = db
        .methods()
        .find(|m| db.method(*m).name() == "Combine")
        .unwrap();
    let exists = db
        .methods()
        .find(|m| db.method(*m).name() == "Exists")
        .unwrap();
    assert!(AbsTypes::matches(
        abs.param_class(&db, combine, 0),
        abs.param_class(&db, exists, 0)
    ));
    assert!(!AbsTypes::matches(
        abs.param_class(&db, combine, 0),
        abs.param_class(&db, combine, 1)
    ));
}
