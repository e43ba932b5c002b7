//! Span arithmetic on a hand-built tree, and the JSONL file format.

use repro_bench::json::{self, Json};
use repro_bench::trace::{self, Span, NO_PARENT};

fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    }
}

/// ```text
/// pass            [0 ............................ 1000]
///   ml.logreg       [100 ........... 600]
///     core.op.lmm     [150 . 250]   [300 ... 500]  core.op.t_lmm
///   ml.kmeans                         [700 .. 900]
/// other           [2000 . 2100]
/// ```
fn tree() -> Vec<Span> {
    vec![
        span(0, NO_PARENT, "pass", 0, 1000),
        span(1, 0, "ml.logreg", 100, 600),
        span(2, 1, "core.op.lmm", 150, 250),
        span(3, 1, "core.op.t_lmm", 300, 500),
        span(4, 0, "ml.kmeans", 700, 900),
        span(5, NO_PARENT, "other", 2000, 2100),
    ]
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let spans = tree();
    // pass: 1000 − (500 + 200); logreg: 500 − (100 + 200); leaves: whole.
    assert_eq!(trace::self_times_ns(&spans), [300, 200, 100, 200, 200, 100]);
    // Self times partition the roots' wall time.
    let total: u64 = trace::self_times_ns(&spans).iter().sum();
    assert_eq!(total, 1000 + 100);
}

#[test]
fn totals_and_ancestry_follow_the_parent_links() {
    let spans = tree();
    let ops = trace::total_s(&spans, |s| s.name.starts_with(trace::OP_PREFIX));
    assert_eq!(ops, 300e-9);
    assert!(trace::is_under(&spans, &spans[3], "ml.logreg"));
    assert!(trace::is_under(&spans, &spans[3], "pass"));
    assert!(!trace::is_under(&spans, &spans[4], "ml.logreg"));
    assert!(!trace::is_under(&spans, &spans[5], "pass"));
    assert_eq!(trace::total_s(&spans, |_| false), 0.0);
    assert!(trace::total_s(&spans, |_| false).is_sign_positive());
}

#[test]
fn jsonl_has_one_parseable_object_per_span() {
    let spans = tree();
    let dir = std::env::temp_dir().join(format!("repro-bench-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spans-test.jsonl");
    trace::write_jsonl(&path, &spans).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), spans.len());
    for (line, s) in lines.iter().zip(&spans) {
        let v = json::parse(line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(f64::from(s.id)));
        assert_eq!(v.get("name").and_then(Json::as_str), Some(s.name));
        assert_eq!(
            v.get("start_ns").and_then(Json::as_f64),
            Some(s.start_ns as f64)
        );
        assert_eq!(
            v.get("end_ns").and_then(Json::as_f64),
            Some(s.end_ns as f64)
        );
        match s.parent {
            NO_PARENT => assert_eq!(v.get("parent"), Some(&Json::Null)),
            p => assert_eq!(v.get("parent").and_then(Json::as_f64), Some(f64::from(p))),
        }
    }
}
