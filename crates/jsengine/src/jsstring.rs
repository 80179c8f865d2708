//! JavaScript strings: sequences of UTF-16 code units.
//!
//! JavaScript strings are *not* guaranteed to be valid UTF-16 — they are
//! arbitrary `u16` sequences. Doppio's Buffer module exploits this on
//! browsers that don't validity-check strings by packing **two bytes of
//! binary data into every code unit** (§5.1), doubling the capacity of
//! string-based storage mechanisms like localStorage. Rust's `String`
//! cannot represent lone surrogates, so this type carries the code
//! units directly.

use std::fmt;

/// A JavaScript string: an arbitrary sequence of UTF-16 code units.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JsString(Vec<u16>);

impl JsString {
    /// The empty string.
    pub fn new() -> JsString {
        JsString(Vec::new())
    }

    /// Wrap raw UTF-16 code units (they need not be valid UTF-16).
    pub fn from_units(units: Vec<u16>) -> JsString {
        JsString(units)
    }

    /// The code units.
    pub fn units(&self) -> &[u16] {
        &self.0
    }

    /// Length in code units (JavaScript's `.length`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Bytes this string occupies in a browser string store
    /// (2 bytes per code unit).
    pub fn storage_bytes(&self) -> usize {
        self.0.len() * 2
    }

    /// Whether the units form valid UTF-16 (no lone surrogates).
    /// Browsers whose profile validates strings reject strings for
    /// which this is false.
    pub fn is_valid_utf16(&self) -> bool {
        char::decode_utf16(self.0.iter().copied()).all(|r| r.is_ok())
    }

    /// Decode to a Rust `String`, replacing lone surrogates with
    /// U+FFFD (like JavaScript's lossy conversions do at I/O edges).
    pub fn to_string_lossy(&self) -> String {
        char::decode_utf16(self.0.iter().copied())
            .map(|r| r.unwrap_or(char::REPLACEMENT_CHARACTER))
            .collect()
    }
}

impl From<&str> for JsString {
    fn from(s: &str) -> JsString {
        JsString(s.encode_utf16().collect())
    }
}

impl From<String> for JsString {
    fn from(s: String) -> JsString {
        JsString::from(s.as_str())
    }
}

impl fmt::Display for JsString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_lossy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_valid_text() {
        let js = JsString::from("héllo \u{1F600}");
        assert!(js.is_valid_utf16());
        assert_eq!(js.to_string_lossy(), "héllo \u{1F600}");
    }

    #[test]
    fn lone_surrogates_are_representable() {
        let js = JsString::from_units(vec![0xD800]); // lone high surrogate
        assert!(!js.is_valid_utf16());
        assert_eq!(js.len(), 1);
        assert_eq!(js.storage_bytes(), 2);
        assert_eq!(js.to_string_lossy(), "\u{FFFD}");
    }

    #[test]
    fn length_counts_units_not_chars() {
        // One emoji = two UTF-16 code units, like JS's .length.
        assert_eq!(JsString::from("\u{1F600}").len(), 2);
    }
}
