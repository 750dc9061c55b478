//! The shared `key = value` scanner: grammar and line-anchored errors.

use qla_core::kv::{KeyValues, KvError};

#[test]
fn comments_blanks_and_padding_are_ignored() {
    let text = "# header\n\n  a = 1  # trailing\nb=two words\n";
    let mut kv = KeyValues::scan(text).unwrap();
    assert_eq!(kv.take("a"), Ok("1"));
    assert_eq!(kv.value("b", "text", |v| Some(v.len())), Ok(9));
    assert_eq!(kv.finish(), Ok(()));
}

#[test]
fn every_error_is_anchored_to_its_line() {
    assert!(matches!(
        KeyValues::scan("a = 1\nno equals"),
        Err(KvError::Syntax { line: 2, .. })
    ));
    assert!(matches!(
        KeyValues::scan(" = 1"),
        Err(KvError::Syntax { line: 1, .. })
    ));
    assert_eq!(
        KeyValues::scan("a = 1\n\na = 2").unwrap_err(),
        KvError::DuplicateKey {
            line: 3,
            key: "a".to_owned(),
            first_line: 1
        }
    );
    let mut kv = KeyValues::scan("n = x\nz = 1\ny = 2").unwrap();
    assert_eq!(kv.take("m"), Err(KvError::MissingKey { key: "m" }));
    assert_eq!(
        kv.value("n", "a number", |v| v.parse::<u8>().ok()),
        Err(KvError::BadValue {
            line: 1,
            key: "n",
            value: "x".to_owned(),
            expected: "a number"
        })
    );
    assert_eq!(
        kv.finish(),
        Err(KvError::UnknownKey {
            line: 2,
            key: "z".to_owned()
        })
    );
}
