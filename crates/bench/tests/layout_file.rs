//! The layout file `search --layout-out` writes and `lint --layout-file`
//! reads: a written view reads back equal, and hostile text yields a
//! typed error, never a panic or a different view.

use oslay_bench::{layout_view_from_json, layout_view_to_json, LayoutFileError};
use oslay_verify::LayoutView;

fn view() -> LayoutView {
    LayoutView {
        name: "Se\"arch\\1".to_owned(),
        addr: vec![0, 64, 1 << 40],
        size: vec![32, 64, u32::MAX],
    }
}

fn wrong(key: &'static str, expected: &'static str) -> LayoutFileError {
    LayoutFileError::WrongType { key, expected }
}

#[test]
fn a_written_view_reads_back_equal() {
    let text = layout_view_to_json(&view());
    assert_eq!(layout_view_from_json(&text), Ok(view()));
    let empty = LayoutView {
        name: String::new(),
        addr: Vec::new(),
        size: Vec::new(),
    };
    assert_eq!(
        layout_view_from_json(&layout_view_to_json(&empty)),
        Ok(empty)
    );
}

#[test]
fn every_truncation_is_an_error_or_the_whole_view() {
    let text = layout_view_to_json(&view());
    let close = text.rfind('}').expect("an object");
    for cut in 0..text.len() {
        match layout_view_from_json(&text[..cut]) {
            Ok(v) => {
                assert!(cut > close, "a cut at byte {cut} parsed");
                assert_eq!(v, view());
            }
            Err(e) => {
                assert!(cut <= close, "the whole object failed at byte {cut}: {e}");
                assert!(matches!(e, LayoutFileError::NotJson(_)), "{e}");
            }
        }
    }
}

#[test]
fn hostile_documents_give_typed_errors() {
    let cases = [
        ("[1, 2]", LayoutFileError::Missing("name")),
        (
            r#"{"addr": [], "size": []}"#,
            LayoutFileError::Missing("name"),
        ),
        (
            r#"{"name": "x", "size": []}"#,
            LayoutFileError::Missing("addr"),
        ),
        (
            r#"{"name": "x", "addr": []}"#,
            LayoutFileError::Missing("size"),
        ),
        (
            r#"{"name": 5, "addr": [], "size": []}"#,
            wrong("name", "must be a string"),
        ),
        (
            r#"{"name": "x", "addr": "0", "size": []}"#,
            wrong("addr", "must be an array"),
        ),
        (
            r#"{"name": "x", "addr": [], "size": {}}"#,
            wrong("size", "must be an array"),
        ),
        (
            r#"{"name": "x", "addr": [-64], "size": [4]}"#,
            wrong("addr", "entries must be non-negative integers"),
        ),
        (
            r#"{"name": "x", "addr": [1.5], "size": [4]}"#,
            wrong("addr", "entries must be non-negative integers"),
        ),
        (
            r#"{"name": "x", "addr": ["0"], "size": [4]}"#,
            wrong("addr", "entries must be non-negative integers"),
        ),
        (
            r#"{"name": "x", "addr": [18446744073709551616], "size": [4]}"#,
            wrong("addr", "entries must be non-negative integers"),
        ),
        (
            r#"{"name": "x", "addr": [0], "size": [4294967296]}"#,
            wrong("size", "entries must be u32 integers"),
        ),
        (
            r#"{"name": "x", "addr": [0], "size": [null]}"#,
            wrong("size", "entries must be u32 integers"),
        ),
        (
            r#"{"name": "x", "addr": [0, 64, 128], "size": [64, 64]}"#,
            LayoutFileError::LengthMismatch { addr: 3, size: 2 },
        ),
    ];
    for (text, want) in cases {
        assert_eq!(layout_view_from_json(text), Err(want), "{text}");
    }
    assert!(matches!(
        layout_view_from_json(r#"{"name": "a"b", "addr": [], "size": []}"#),
        Err(LayoutFileError::NotJson(_))
    ));
}

#[test]
fn errors_name_the_offending_member() {
    let msg = |text: &str| layout_view_from_json(text).unwrap_err().to_string();
    assert!(msg("{").starts_with("not JSON: "));
    assert_eq!(msg(r#"{"name": "x", "addr": []}"#), "missing \"size\"");
    assert_eq!(
        msg(r#"{"name": "x", "addr": [0], "size": [-1]}"#),
        "\"size\" entries must be u32 integers"
    );
    assert_eq!(
        msg(r#"{"name": "x", "addr": [0, 64, 128], "size": [64, 64]}"#),
        "3 \"addr\" but 2 \"size\" entries"
    );
}
