//! The JSON string escaper every JSON body in the system is written with:
//! SPARQL-JSON results, the facet panel and the server's error and stats
//! documents.
//!
//! [`push_json_string`] appends a quoted JSON string to a caller-owned
//! buffer, copying each run of bytes that needs no escape in one piece, so
//! writing a value allocates nothing beyond the buffer's own growth.

/// Append `s` to `out` as a JSON string literal, quotes included.
///
/// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` get their short
/// escapes, every other control character below U+0020 becomes `\u00xx`
/// (lower-case hex). Everything else, DEL and non-ASCII included, is
/// copied verbatim.
pub fn push_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // every escaped byte is ASCII, so `i` is a char boundary
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// `s` as a JSON string literal, quotes included: [`push_json_string`]
/// into a fresh `String`, for bodies assembled with `format!`.
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    push_json_string(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The char-at-a-time escaper this module replaced.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn escapes_every_class_like_the_per_char_escaper() {
        let mut every_ascii: String = (0u8..0x80).map(char::from).collect();
        every_ascii.push_str("é中🦀\u{7f}\u{80}\u{2028}");
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c\nd\re\tf",
            "\u{1}\u{1f}",
            "é\n中",
            &every_ascii,
        ] {
            assert_eq!(json_string(s), escape_per_char(s), "{s:?}");
        }
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("\u{1b}"), "\"\\u001b\"");
    }

    #[test]
    fn appends_to_what_the_buffer_holds() {
        let mut out = String::from("{\"k\":");
        push_json_string(&mut out, "v\"");
        out.push('}');
        assert_eq!(out, "{\"k\":\"v\\\"\"}");
    }
}
