//! Cross-crate integration: mini-C# source → code model → abstract types →
//! queries of every kind, with the engine's outputs checked against the
//! reference semantics and the specification scorer.

use pex::prelude::*;

const SOURCE: &str = r#"
namespace Media {
    enum Codec { Mp3, Ogg, Flac }
    [Comparable] struct Timestamp { }
    class Track {
        string Title;
        double Duration;
        Media.Timestamp AddedAt;
        Media.Album Album;
        Media.Codec GetCodec();
    }
    class Album {
        string Title;
        double Duration;
        Media.Track Best();
    }
    class Player {
        static Media.Player Instance;
        void Play(Media.Track track);
        void Enqueue(Media.Track track, int position);
        static double CrossFade(Media.Track from, Media.Track to);
    }
}
namespace Media.Library {
    class Catalog {
        static Media.Track Lookup(string title);
        static void Register(Media.Track track, Media.Codec codec);
    }
}
namespace App {
    class Ui {
        Media.Track Current;
        void OnClick(Media.Track next) {
            var fade = Media.Player.CrossFade(this.Current, next);
            Media.Player.Instance.Play(next);
            this.Current.Duration >= next.Duration;
            this.Current = next;
        }
    }
}
"#;

fn setup() -> (Database, Context, pex::model::MethodId) {
    let db = pex::model::minics::compile(SOURCE).expect("source compiles");
    let on_click = db
        .methods()
        .find(|m| db.method(*m).name() == "OnClick")
        .unwrap();
    let body = db.method(on_click).body().unwrap();
    let ctx = Context::at_statement(&db, on_click, body, body.stmts.len());
    (db, ctx, on_click)
}

/// Every completion must: derive from the query (Figure 6), type-check,
/// appear in non-decreasing score order, and carry exactly the score the
/// specification ranker assigns.
fn check_invariants(db: &Database, ctx: &Context, engine: &Completer<'_>, query: &PartialExpr) {
    let completions: Vec<Completion> = engine.completions(query).take(40).collect();
    let ranker = engine.ranker();
    let arena = ExprArena::new();
    let mut last = 0;
    for c in &completions {
        assert!(
            derives(db, ctx, query, &c.expr),
            "not derivable: {}",
            engine.render(c)
        );
        assert!(
            db.expr_ty(&c.expr, ctx).is_ok(),
            "ill-typed: {}",
            engine.render(c)
        );
        assert!(c.score >= last, "scores must be non-decreasing");
        last = c.score;
        assert_eq!(
            ranker.score(&arena, arena.intern_expr(&c.expr)),
            Some((c.score, c.ty)),
            "score mismatch: {}",
            engine.render(c)
        );
    }
    // No duplicates.
    let mut keys: Vec<String> = completions
        .iter()
        .map(|c| format!("{:?}", c.expr))
        .collect();
    let n = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), n, "duplicated completions");
}

#[test]
fn every_query_kind_satisfies_engine_invariants() {
    let (db, ctx, on_click) = setup();
    let abs = AbsTypes::for_query(&db, on_click, usize::MAX);
    let index = MethodIndex::build(&db);
    let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), Some(&abs));
    for query_text in [
        "?",
        "?({next})",
        "?({this.Current, next})",
        "Play(?)",
        "Media.Player.CrossFade(next, ?)",
        "next.?f",
        "next.?*m",
        "this.?m.?m",
        "this.Current.?f := next.?f",
        "next.?*m >= this.?*m",
        "?({fade, 0})",
    ] {
        let query = parse_partial(&db, &ctx, query_text)
            .unwrap_or_else(|e| panic!("query `{query_text}` failed to parse: {e}"));
        check_invariants(&db, &ctx, &engine, &query);
    }
}

#[test]
fn cross_fade_found_from_two_tracks() {
    let (db, ctx, _) = setup();
    let index = MethodIndex::build(&db);
    let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
    let query = parse_partial(&db, &ctx, "?({this.Current, next})").unwrap();
    let rendered: Vec<String> = engine
        .complete(&query, 10)
        .iter()
        .map(|c| engine.render(c))
        .collect();
    assert!(
        rendered.iter().any(|r| r.contains("CrossFade")),
        "CrossFade takes two tracks: {rendered:?}"
    );
    // Enqueue(track, int) cannot absorb *two* tracks (placement is
    // injective and it has one Track slot), but it can absorb one:
    let one = parse_partial(&db, &ctx, "?({next})").unwrap();
    let rendered_one: Vec<String> = engine
        .complete(&one, 15)
        .iter()
        .map(|c| engine.render(c))
        .collect();
    assert!(
        rendered_one.iter().any(|r| r.contains("Enqueue")),
        "{rendered_one:?}"
    );
    assert!(
        rendered_one.iter().any(|r| r.contains("Play")),
        "{rendered_one:?}"
    );
}

#[test]
fn comparison_prefers_matching_duration_fields() {
    let (db, ctx, _) = setup();
    let index = MethodIndex::build(&db);
    let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
    let query = parse_partial(&db, &ctx, "next.?m >= this.Current.?m").unwrap();
    let top = engine.complete(&query, 3);
    let first = engine.render(&top[0]);
    assert!(
        first.contains("Duration") && first.matches("Duration").count() == 2,
        "same-named comparable fields first: {first}"
    );
}

#[test]
fn enum_and_comparable_struct_behave() {
    let (db, ctx, _) = setup();
    let index = MethodIndex::build(&db);
    let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
    // Register(track, codec): the codec hole offers the enum members and
    // the GetCodec() chain.
    let query = parse_partial(&db, &ctx, "Media.Library.Catalog.Register(next, ?)").unwrap();
    let rendered: Vec<String> = engine
        .complete(&query, 10)
        .iter()
        .map(|c| engine.render(c))
        .collect();
    assert!(
        rendered.iter().any(|r| r.contains("GetCodec()")),
        "zero-arg call chains feed enum-typed holes: {rendered:?}"
    );
    // Timestamps are comparable only because of [Comparable].
    let query = parse_partial(&db, &ctx, "next.?f >= this.Current.?f").unwrap();
    let all: Vec<String> = engine
        .completions(&query)
        .take(50)
        .map(|c| engine.render(&c))
        .collect();
    assert!(
        all.iter().any(|r| r.contains("AddedAt")),
        "comparable structs participate in comparisons: {all:?}"
    );
    assert!(
        !all.iter().any(|r| r.contains("Title")),
        "strings are not ordered in C#: {all:?}"
    );
}

#[test]
fn rank_of_positions_are_stable_and_0_based() {
    let (db, ctx, _) = setup();
    let index = MethodIndex::build(&db);
    let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
    let query = parse_partial(&db, &ctx, "?({next})").unwrap();
    let list: Vec<Completion> = engine.completions(&query).take(20).collect();
    for (i, c) in list.iter().enumerate() {
        let expect = c.expr.clone();
        let res = engine.rank_of(&query, 20, |cand| cand.expr == expect);
        assert_eq!(res.rank, Some(i));
        assert!(
            !res.is_degraded(),
            "a decided rank at this scale must not be cut short: {:?}",
            res.outcome
        );
    }
}
