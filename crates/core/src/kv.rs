//! The shared `key = value` scanner behind the workspace's hand-rolled
//! text formats (machine specs and fault plans).
//!
//! The grammar: `#` starts a comment that runs to the end of its line;
//! lines that are blank once the comment is stripped are skipped; every
//! other line is `key = value`, split at the first `=` with both sides
//! trimmed. A key may appear once. A format [`take`](KeyValues::take)s the
//! keys it knows, then calls [`finish`](KeyValues::finish), which reports
//! the leftover key on the lowest line as unknown — a typo of a real key
//! must never be silently ignored.
//!
//! Each format keeps its own error type and converts from [`KvError`],
//! so its messages keep their own prefix.

use std::collections::HashMap;

/// What can be wrong with a `key = value` text before a format looks at
/// what its values mean. `'k` is the lifetime of a key the caller asked
/// for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError<'k> {
    /// A line was not `key = value`.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A key given twice.
    DuplicateKey {
        /// Line of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
        /// Line of the first occurrence.
        first_line: usize,
    },
    /// A key the caller asked for was absent.
    MissingKey {
        /// The missing key.
        key: &'k str,
    },
    /// A value that does not parse as what its key demands.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value is malformed.
        key: &'k str,
        /// The offending value text.
        value: String,
        /// What the key demands.
        expected: &'static str,
    },
    /// A key nobody took: the one on the lowest line.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unrecognised key.
        key: String,
    },
}

/// A scanned text: every key with its 1-based line and its value,
/// borrowed from the text.
#[derive(Debug)]
pub struct KeyValues<'a> {
    entries: HashMap<&'a str, (usize, &'a str)>,
}

impl<'a> KeyValues<'a> {
    /// Scan `text` into its entries.
    ///
    /// # Errors
    /// Returns [`KvError::Syntax`] for a line without `=` or with an
    /// empty key, and [`KvError::DuplicateKey`] for a repeated key.
    pub fn scan(text: &'a str) -> Result<Self, KvError<'static>> {
        let mut entries: HashMap<&'a str, (usize, &'a str)> = HashMap::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(KvError::Syntax {
                    line,
                    message: format!("expected `key = value`, got {content:?}"),
                });
            };
            let key = key.trim();
            if key.is_empty() {
                return Err(KvError::Syntax {
                    line,
                    message: "missing key before '='".to_owned(),
                });
            }
            if let Some(&(first_line, _)) = entries.get(key) {
                return Err(KvError::DuplicateKey {
                    line,
                    key: key.to_owned(),
                    first_line,
                });
            }
            entries.insert(key, (line, value.trim()));
        }
        Ok(KeyValues { entries })
    }

    /// Remove `key` and return its value.
    ///
    /// # Errors
    /// Returns [`KvError::MissingKey`] if the text does not give `key`.
    pub fn take<'k>(&mut self, key: &'k str) -> Result<&'a str, KvError<'k>> {
        self.value(key, "any text", Some)
    }

    /// Take `key` and parse its value with `parse`.
    ///
    /// # Errors
    /// Returns [`KvError::MissingKey`] if `key` is absent and
    /// [`KvError::BadValue`] (naming `expected`) if `parse` rejects it.
    pub fn value<'k, T>(
        &mut self,
        key: &'k str,
        expected: &'static str,
        parse: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, KvError<'k>> {
        let (line, value) = self
            .entries
            .remove(key)
            .ok_or(KvError::MissingKey { key })?;
        parse(value).ok_or_else(|| KvError::BadValue {
            line,
            key,
            value: value.to_owned(),
            expected,
        })
    }

    /// Check that every key was taken.
    ///
    /// # Errors
    /// Returns [`KvError::UnknownKey`] for the leftover key on the lowest
    /// line.
    pub fn finish(self) -> Result<(), KvError<'static>> {
        match self.entries.into_iter().min_by_key(|&(_, (line, _))| line) {
            None => Ok(()),
            Some((key, (line, _))) => Err(KvError::UnknownKey {
                line,
                key: key.to_owned(),
            }),
        }
    }
}
