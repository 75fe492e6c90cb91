//! A small JSON value model with encode/decode, replacing the
//! `serde`/`serde_json` dependency for the handful of artifacts the system
//! actually serializes (degradation profiles, bench result files).
//!
//! Records and tagged enums declare their JSON shape once with
//! [`json_codec!`](crate::json_codec), which implements both [`ToJson`]
//! and [`FromJson`] from one field list; scalars, containers and the few
//! enums with custom shapes implement the traits by hand. Numbers are
//! `f64` (like JSON itself); integers round-trip exactly up to 2^53, far
//! beyond any counter in this codebase.
//!
//! An object's members are a [`Map`]: one vector of `(Key, Json)` pairs,
//! sorted by key bytes with no key twice. That is the order a
//! `BTreeMap<String, Json>` keeps, so every encoding is deterministic, and
//! a later member with a key already present replaces the earlier one. A
//! [`Key`] of up to 22 bytes — every key of the wire protocol, the
//! profiles and the journals — lives inside the pair, so an object costs
//! one allocation for its members, not one per key. Members are compared
//! and looked up as bytes. The parser collects the members
//! of every open object on one stack and moves each object's own into a
//! vector of exact size at its `}`, sorting only when they arrived out of
//! order; a key with no escape is copied straight from the input.
//!
//! A value has one encoder, [`ToJson::write_json`]: it appends the
//! compact encoding straight to a `String`, with no tree in between, its
//! members sorted by key as a [`Map`] sorts them; the serving daemon
//! encodes every reply this way into a buffer it reuses. What it writes
//! is canonical JSON — sorted keys, no key twice — so [`Json::parse`]
//! then [`Json::encode`] gives back the same bytes. [`ToJson::to_json`]
//! is that parse: the [`Json`] tree a caller inspects or edits before
//! encoding it, and what the pretty printer, the golden files and
//! request stamping work on.

use std::fmt::{self, Write as _};
use std::ops::Deref;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Members are kept sorted by key so encoding is
    /// deterministic — byte-identical output for equal values.
    Obj(Map),
}

/// Longest [`Key`] held inline, without a heap allocation: with its
/// length byte and the enum tag, an inline key fills the 24 bytes a
/// `Box<str>` key needs anyway.
const INLINE_KEY_LEN: usize = 22;

/// The key of an object member. Text of up to 22 bytes is stored
/// inline; longer text is stored as a `Box<str>`. Keys compare
/// and order by their bytes, which is `str`'s order.
#[derive(Clone)]
pub struct Key(KeyText);

#[derive(Clone)]
enum KeyText {
    /// The length, then that many bytes of UTF-8.
    Inline(u8, [u8; INLINE_KEY_LEN]),
    Heap(Box<str>),
}

impl Key {
    /// The key as text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyText::Inline(..) => std::str::from_utf8(self.as_bytes())
                .expect("an inline key is copied from a whole str"),
            KeyText::Heap(text) => text,
        }
    }

    /// The key's UTF-8 bytes, without validating them again.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyText::Inline(len, bytes) => &bytes[..usize::from(*len)],
            KeyText::Heap(text) => text.as_bytes(),
        }
    }

    /// An inline key of the first `len` bytes of `window`, which must be
    /// UTF-8; the bytes past `len` are never read.
    fn inline(len: usize, window: &[u8]) -> Key {
        let bytes = window.try_into().expect("a window is INLINE_KEY_LEN bytes");
        Key(KeyText::Inline(len as u8, bytes))
    }
}

impl From<&str> for Key {
    fn from(text: &str) -> Key {
        if text.len() > INLINE_KEY_LEN {
            return Key(KeyText::Heap(text.into()));
        }
        let mut bytes = [0; INLINE_KEY_LEN];
        bytes[..text.len()].copy_from_slice(text.as_bytes());
        Key(KeyText::Inline(text.len() as u8, bytes))
    }
}

impl From<String> for Key {
    fn from(text: String) -> Key {
        match text.len() > INLINE_KEY_LEN {
            true => Key(KeyText::Heap(text.into_boxed_str())),
            false => Key::from(text.as_str()),
        }
    }
}

impl Deref for Key {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The members of a [`Json::Obj`]: one vector of `(key, value)` pairs,
/// sorted by key bytes, with no key twice. Wherever members arrive with a
/// key already present — [`Map::insert`], [`Extend`], [`FromIterator`],
/// a parsed document — the later member wins, as with
/// `BTreeMap::insert`.
#[derive(Clone, Default, PartialEq)]
pub struct Map(Vec<(Key, Json)>);

impl Map {
    /// An empty object.
    pub fn new() -> Map {
        Map(Vec::new())
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value of the member `key`. A scan from the front: for the
    /// small records this workspace decodes, comparing bytes that mostly
    /// differ in length beats a binary search.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let key = key.as_bytes();
        self.0.iter().find(|(k, _)| k.as_bytes() == key).map(|(_, v)| v)
    }

    /// Sets the member `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: impl Into<Key>, value: Json) -> Option<Json> {
        let key = key.into();
        match self.0.binary_search_by(|(k, _)| k.as_bytes().cmp(key.as_bytes())) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key, value));
                None
            }
        }
    }

    /// The members in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }

    /// The values in key order, for editing in place.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Json> {
        self.0.iter_mut().map(|(_, v)| v)
    }

    /// Makes members in any order a map: a stable sort keeps members
    /// with equal keys in arrival order, and the last of them is kept.
    /// Members already in order — what this module's encoders write — are
    /// only checked.
    fn from_members(mut members: Vec<(Key, Json)>) -> Map {
        if !members.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            members.sort_by(|a, b| a.0.cmp(&b.0));
            members.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
        Map(members)
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<Key>> FromIterator<(K, Json)> for Map {
    fn from_iter<I: IntoIterator<Item = (K, Json)>>(members: I) -> Map {
        Map::from_members(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl<K: Into<Key>> Extend<(K, Json)> for Map {
    fn extend<I: IntoIterator<Item = (K, Json)>>(&mut self, members: I) {
        let mut all = std::mem::take(&mut self.0);
        all.extend(members.into_iter().map(|(k, v)| (k.into(), v)));
        *self = Map::from_members(all);
    }
}

impl IntoIterator for Map {
    type Item = (Key, Json);
    type IntoIter = std::vec::IntoIter<(Key, Json)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a Key, &'a Json);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The members of a [`Map`] in key order, by reference.
#[derive(Debug, Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, (Key, Json)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Key, &'a Json);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// Error from parsing or mapping JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// The same error, prefixed with the object key it occurred under.
    pub fn within(self, key: &str) -> Self {
        JsonError::new(format!("{key}: {}", self.msg))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for JSON operations.
pub type Result<T> = std::result::Result<T, JsonError>;

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().collect())
    }

    /// Member lookup on an object; errors on missing keys or non-objects.
    pub fn get(&self, key: &str) -> Result<&Json> {
        match self {
            Json::Obj(map) => map
                .get(key)
                .ok_or_else(|| JsonError::new(format!("missing key {key:?}"))),
            other => Err(JsonError::new(format!(
                "expected object with key {key:?}, got {}",
                other.kind()
            ))),
        }
    }

    /// Member lookup that treats a missing key as `None`.
    pub fn get_opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(JsonError::new(format!("expected number, got {}", other.kind()))),
        }
    }

    /// The value as a non-negative integer (exact).
    pub fn as_u64(&self) -> Result<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Ok(n as u64)
        } else {
            Err(JsonError::new(format!("expected unsigned integer, got {n}")))
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {}", other.kind()))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {}", other.kind()))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!("expected array, got {}", other.kind()))),
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Parses a JSON document.
    ///
    /// Hardened against corrupted input (this is the parser journal
    /// replay runs through): nesting is capped at [`MAX_PARSE_DEPTH`] so
    /// adversarially deep documents error instead of overflowing the
    /// stack, and numbers that overflow `f64` (`1e999`) are rejected
    /// instead of decoding to infinity.
    pub fn parse(input: &str) -> Result<Json> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            members: Vec::with_capacity(16),
        };
        p.skip_ws();
        let value = p.value()?;
        if p.skip_ws().is_some() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(value)
    }

    /// Compact encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the compact encoding to `out`.
    pub fn encode_into(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty encoding with two-space indentation.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items, |out, item| {
                item.write(out, indent, depth + 1);
            }),
            Json::Obj(map) => write_seq(out, indent, depth, '{', '}', map, |out, (key, value)| {
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                value.write(out, indent, depth + 1);
            }),
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push(open);
    let mut empty = true;
    for value in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(width * (depth + 1)));
        }
        item(out, value);
    }
    if let (false, Some(width)) = (empty, indent) {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; encode as null like serde_json's lossy mode.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        write_integer(out, n as i64);
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        let _ = write!(out, "{n}");
    }
}

/// Writes `n` in decimal, as `{}` would, without the formatter.
fn write_integer(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run that needs no escape in one slice. Every escaped byte
    // is ASCII, so each run ends on a char boundary.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xF)] as char);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum container nesting depth [`Json::parse`] accepts. Real
/// artifacts in this workspace nest a handful of levels; the cap exists
/// so corrupted or hostile input cannot overflow the parser's stack.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input. A slice of it between ASCII delimiters is a `&str`
    /// after a char-boundary check, with no UTF-8 scan.
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// The members of every object still open, innermost last: each
    /// object pushes its own here and moves them out at its `}`, so a
    /// parse grows one stack instead of a vector per object.
    members: Vec<(Key, Json)>,
}

impl<'a> Parser<'a> {
    /// Skips whitespace and returns the next byte.
    fn skip_ws(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word) {
            self.pos = end;
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    /// A value starting at `pos`, which is not whitespace.
    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(other) => Err(JsonError::new(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    /// Steps into the container whose opening byte is at `pos`, erroring
    /// past the nesting cap, and returns whether it is empty: then its
    /// `close` byte is consumed too. The matching decrement happens only
    /// on success paths — a failed parse aborts the whole document, so
    /// the counter never needs unwinding.
    fn open(&mut self, close: u8) -> Result<bool> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
                self.pos
            )));
        }
        if self.skip_ws() != Some(close) {
            return Ok(false);
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(true)
    }

    /// After a member or an item: skips the `,` before the next one and
    /// returns `false`, or the `close` byte ending the container and
    /// returns `true`.
    fn next_or_close(&mut self, close: u8) -> Result<bool> {
        match self.skip_ws() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(true)
            }
            _ => Err(JsonError::new(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Json> {
        if self.open(b']')? {
            return Ok(Json::Arr(Vec::new()));
        }
        let mut items = Vec::new();
        loop {
            items.push(self.value()?);
            if self.next_or_close(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        if self.open(b'}')? {
            return Ok(Json::Obj(Map::new()));
        }
        let base = self.members.len();
        loop {
            let key = self.key()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.members.push((key, value));
            if self.next_or_close(b'}')? {
                let members = self.members.split_off(base);
                return Ok(Json::Obj(Map::from_members(members)));
            }
        }
    }

    /// An object key. A key with no escape is copied straight from the
    /// input: an inline key as the fixed-size window of input bytes it
    /// starts, where the input is long enough.
    fn key(&mut self) -> Result<Key> {
        let Some(text) = self.plain_string() else {
            return self.string().map(Key::from);
        };
        let start = self.pos - 1 - text.len();
        match self.bytes.get(start..start + INLINE_KEY_LEN) {
            Some(window) if text.len() <= INLINE_KEY_LEN => Ok(Key::inline(text.len(), window)),
            _ => Ok(Key::from(text)),
        }
    }

    /// A string at `pos` with no escape, taken as a slice of the input
    /// (the run starts after an ASCII quote and stops at one, so it lies
    /// on char boundaries); `None`, consuming nothing, for any other.
    fn plain_string(&mut self) -> Option<&'a str> {
        if self.peek() != Some(b'"') {
            return None;
        }
        let start = self.pos + 1;
        let len = self.bytes[start..].iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        if self.bytes[start + len] != b'"' {
            return None;
        }
        self.pos = start + len + 1;
        Some(&self.text[start..start + len])
    }

    fn string(&mut self) -> Result<String> {
        if let Some(text) = self.plain_string() {
            return Ok(text.to_string());
        }
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(JsonError::new("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(JsonError::new("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::new("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(JsonError::new(format!(
                                "invalid escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one slice. It starts after an ASCII
                    // byte and every stop byte is ASCII, so it is a slice
                    // of the input `&str` on char boundaries.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.pos == start {
                        return Err(JsonError::new("unescaped control character in string"));
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            // Only ASCII hex digits: `u32::from_str_radix` would also take
            // a leading `+`.
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| JsonError::new("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Consumes one or more ASCII digits; at least one must be there.
    fn digits(&mut self, start: usize) -> Result<()> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(JsonError::new(format!("invalid number at byte {start}")));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// RFC 8259 numbers: an optional `-`, then `0` or a digit run without
    /// a leading zero, then optional `.digits` and `e[+-]digits`. An
    /// integer of up to 15 digits is exact in an `f64` and is converted
    /// directly; any other number goes through `str::parse`.
    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits(start)?;
        }
        let integer = &self.bytes[start + usize::from(negative)..self.pos];
        if !matches!(self.peek(), Some(b'.' | b'e' | b'E')) && integer.len() <= 15 {
            let n = integer.iter().fold(0u64, |n, &d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(Json::Num(if negative { -n } else { n }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits(start)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits(start)?;
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| JsonError::new(format!("invalid number {text:?} at byte {start}")))?;
        // `"1e999".parse::<f64>()` succeeds as infinity; JSON has no
        // non-finite numbers, and letting one in would poison every
        // downstream bound computation. Reject instead.
        if !n.is_finite() {
            return Err(JsonError::new(format!(
                "number {text:?} at byte {start} overflows f64"
            )));
        }
        Ok(Json::Num(n))
    }
}

/// Conversion into the encoding of a JSON value, or into the value.
pub trait ToJson {
    /// Appends the compact, canonical encoding of `self` to `out`: keys
    /// sorted by bytes with none twice, so parsing it and encoding the
    /// tree again gives the same bytes.
    fn write_json(&self, out: &mut String);

    /// Converts `self` into a JSON value: the parse of what
    /// [`ToJson::write_json`] writes.
    fn to_json(&self) -> Json {
        let mut out = String::new();
        self.write_json(&mut out);
        Json::parse(&out).expect("write_json writes valid JSON")
    }
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reads `Self` back out of a JSON value.
    fn from_json(value: &Json) -> Result<Self>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        self.encode_into(out);
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        write_number(out, *self);
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<f64> {
        value.as_f64()
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<bool> {
        value.as_bool()
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<String> {
        Ok(value.as_str()?.to_string())
    }
}

macro_rules! json_uint {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                write_number(out, *self as f64);
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<$t> {
                let n = value.as_u64()?;
                <$t>::try_from(n).map_err(|_| JsonError::new(format!("{n} out of range")))
            }
        }
    )*};
}

json_uint!(u8, u16, u32, u64, usize);

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Vec<T>> {
        value.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Option<T>> {
        if value.is_null() {
            Ok(None)
        } else {
            Ok(Some(T::from_json(value)?))
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn write_json(&self, out: &mut String) {
        self.as_ref().write_json(out);
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &Json) -> Result<Box<T>> {
        T::from_json(value).map(Box::new)
    }
}

/// A record declared with [`json_codec!`]: its members' keys in the
/// order it writes them, so that a record holding it as a `[flatten]`
/// field can interleave them with its own keys once, at compile time.
#[doc(hidden)]
pub trait JsonObject {
    /// Every member's key, sorted by bytes: the record's own fields and
    /// the members of its `[flatten]` fields.
    const KEYS: &'static [&'static str];

    /// Writes the member `KEYS[index]` as `"key":value`.
    fn write_member(&self, index: usize, out: &mut String);
}

impl<T: JsonObject + ?Sized> JsonObject for Box<T> {
    const KEYS: &'static [&'static str] = T::KEYS;

    fn write_member(&self, index: usize, out: &mut String) {
        self.as_ref().write_member(index, out);
    }
}

/// One declared field of a record or an enum variant, with the keys it
/// writes: its own name, or the keys of the record it flattens.
#[doc(hidden)]
pub struct Source {
    /// The field's position in its declaration.
    pub field: usize,
    pub keys: &'static [&'static str],
}

/// One member of an object in written order: its key, the field that
/// writes it and, for a `[flatten]` field, the member's index in the
/// flattened record's [`JsonObject::KEYS`].
#[doc(hidden)]
#[derive(Clone, Copy)]
pub struct Member {
    pub key: &'static str,
    pub field: usize,
    pub index: usize,
}

/// The [`JsonObject::KEYS`] of the record a field accessor returns; the
/// accessor is never called, it names the field's type.
#[doc(hidden)]
pub const fn keys_of<S, T: JsonObject + ?Sized>(_: fn(&S) -> &T) -> &'static [&'static str] {
    T::KEYS
}

/// The number of members `sources` write.
#[doc(hidden)]
pub const fn count(sources: &[Source]) -> usize {
    let (mut total, mut i) = (0, 0);
    while i < sources.len() {
        total += sources[i].keys.len();
        i += 1;
    }
    total
}

/// The members `sources` write, sorted by key bytes: the order of a
/// [`Map`]. Evaluated at compile time, where a key declared twice or one
/// that would need escaping stops the build.
#[doc(hidden)]
pub const fn members<const N: usize>(sources: &[Source]) -> [Member; N] {
    let mut members = [Member { key: "", field: 0, index: 0 }; N];
    let (mut len, mut s) = (0, 0);
    while s < sources.len() {
        let mut index = 0;
        while index < sources[s].keys.len() {
            let key = sources[s].keys[index];
            assert!(plain(key), "a declared JSON key must need no escape");
            let mut at = len;
            while at > 0 && before(key, members[at - 1].key) {
                members[at] = members[at - 1];
                at -= 1;
            }
            assert!(at == 0 || before(members[at - 1].key, key), "a JSON key is declared twice");
            members[at] = Member { key, field: sources[s].field, index };
            len += 1;
            index += 1;
        }
        s += 1;
    }
    assert!(len == N, "the member count is the sum of the sources' keys");
    members
}

/// The keys of `members`, in their order.
#[doc(hidden)]
pub const fn keys<const N: usize>(members: &[Member; N]) -> [&'static str; N] {
    let mut keys = [""; N];
    let mut i = 0;
    while i < N {
        keys[i] = members[i].key;
        i += 1;
    }
    keys
}

/// Whether `text` is written as itself between quotes.
#[doc(hidden)]
pub const fn plain(text: &str) -> bool {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' || bytes[i] == b'\\' || bytes[i] < 0x20 {
            return false;
        }
        i += 1;
    }
    true
}

/// Whether `a` sorts strictly before `b` in byte order.
const fn before(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// Writes an object of `len` members, `member(index, out)` writing each
/// as `"key":value`.
#[doc(hidden)]
pub fn write_members(len: usize, out: &mut String, mut member: impl FnMut(usize, &mut String)) {
    out.push('{');
    for index in 0..len {
        if index > 0 {
            out.push(',');
        }
        member(index, out);
    }
    out.push('}');
}

/// Declares the JSON shape of a record or of a tagged enum once and
/// implements both [`ToJson`] and [`FromJson`] from it.
///
/// `write_json` writes the members in sorted key order without building
/// a tree, so its bytes are canonical: `to_json().encode()` gives them
/// back. The order is fixed at compile time, once per record and once
/// per enum variant, with the members of `[flatten]` fields and the enum
/// tag sorted in among the declared keys; a write then walks that order,
/// emitting each key as a quoted literal. A key declared twice, or one
/// that would need an escape, stops the build.
///
/// A record lists its fields; each field's wire key is its name:
///
/// ```
/// # use smokescreen_rt::json::{FromJson, Json, JsonError, ToJson};
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, label: Option<String>, hits: u64 }
///
/// smokescreen_rt::json_codec! {
///     Point { x, label = None, hits = 0 }
///     check |p: &Point| match p.x.is_finite() {
///         true => Ok(()),
///         false => Err(JsonError::new("x is not finite")),
///     }
/// }
///
/// let p = Point::from_json(&Json::parse(r#"{"x": 1.5}"#).unwrap()).unwrap();
/// assert_eq!(p, Point { x: 1.5, label: None, hits: 0 });
/// assert_eq!(p.to_json().encode(), r#"{"hits":0,"label":null,"x":1.5}"#);
/// ```
///
/// Per field:
/// * `name` — the key must be present;
/// * `name = default` — a missing key decodes as `default` (for an
///   `Option` field `= None` also takes `null`; `None` encodes as `null`);
/// * `name [with module]` — `module::write_json(&T, &mut String)`
///   encodes the value and `module::from_json(&Json) -> Result<T>`
///   decodes it; what `write_json` writes must itself be canonical;
/// * `name [flatten]` — the value's object members sit beside the
///   record's own keys, and it decodes from the whole object. The value
///   must itself be a record declared with `json_codec!` (or a `Box` of
///   one).
///
/// Decode errors under a key are prefixed with it. The optional `check`
/// (any `Fn(&Self) -> Result<()>`) runs on the decoded value and rejects
/// out-of-range fields.
///
/// An enum is internally tagged: `enum Type tag "key" { ... }` lists
/// each variant with its wire name and its fields in braces (`{}` for a
/// unit variant), or `(flatten)` for a one-field tuple variant whose
/// object members sit beside the tag. An unknown tag is rejected as
/// `unknown <key> "<name>"`.
#[macro_export]
macro_rules! json_codec {
    (
        enum $ty:ident tag $tag:literal {
            $($variant:ident $wire:literal $body:tt),* $(,)?
        }
        $(check $check:expr)?
    ) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                match self {
                    $($crate::json_codec!(@pat $variant $body inner) => {
                        $crate::json_codec!(@write_variant out, $ty, $tag, $variant $wire $body inner)
                    })*
                }
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Json) -> $crate::json::Result<Self> {
                let decoded = match value.get($tag)?.as_str().map_err(|e| e.within($tag))? {
                    $($wire => $crate::json_codec!(@build value $variant $body),)*
                    other => {
                        return Err($crate::json::JsonError::new(::std::format!(
                            "unknown {} {other:?}",
                            $tag
                        )))
                    }
                };
                $(($check)(&decoded)?;)?
                Ok(decoded)
            }
        }
    };
    (
        $ty:ident { $($field:ident $([$($codec:tt)*])? $(= $default:expr)?),* $(,)? }
        $(check $check:expr)?
    ) => {
        const _: () = {
            #[allow(non_camel_case_types, dead_code)]
            enum Field { $($field),* }
            const SOURCES: &[$crate::json::Source] = &[$($crate::json::Source {
                field: Field::$field as usize,
                keys: $crate::json_codec!(
                    @keys $field [$($($codec)*)?] |value: &$ty| &value.$field
                ),
            }),*];
            const MEMBERS: [$crate::json::Member; $crate::json::count(SOURCES)] =
                $crate::json::members(SOURCES);
            const KEYS: [&str; MEMBERS.len()] = $crate::json::keys(&MEMBERS);

            impl $crate::json::ToJson for $ty {
                fn write_json(&self, out: &mut ::std::string::String) {
                    $crate::json::write_members(MEMBERS.len(), out, |index, out| {
                        $crate::json::JsonObject::write_member(self, index, out)
                    });
                }
            }

            impl $crate::json::JsonObject for $ty {
                const KEYS: &'static [&'static str] = &KEYS;

                fn write_member(&self, index: usize, out: &mut ::std::string::String) {
                    let member = MEMBERS[index];
                    match member.field {
                        $(field if field == Field::$field as usize => $crate::json_codec!(
                            @member out, &self.$field, member.index, $field, [$($($codec)*)?]
                        ),)*
                        _ => ::core::unreachable!(),
                    }
                }
            }
        };

        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Json) -> $crate::json::Result<Self> {
                let decoded = $ty {
                    $($field: $crate::json_codec!(
                        @take value, $field, [$($($codec)*)?] $(, $default)?
                    ),)*
                };
                $(($check)(&decoded)?;)?
                Ok(decoded)
            }
        }
    };

    // The keys one field writes; `$access` names the field's type.
    (@keys $field:ident [flatten] $access:expr) => {
        $crate::json::keys_of($access)
    };
    (@keys $field:ident [$($codec:tt)*] $access:expr) => {
        &[::core::stringify!($field)]
    };

    // One field's member, key and value; `$index` picks the member of a
    // `[flatten]` field.
    (@member $out:ident, $v:expr, $index:expr, $field:ident, []) => {{
        $out.push_str(::core::concat!("\"", ::core::stringify!($field), "\":"));
        $crate::json::ToJson::write_json($v, $out)
    }};
    (@member $out:ident, $v:expr, $index:expr, $field:ident, [with $codec:ident]) => {{
        $out.push_str(::core::concat!("\"", ::core::stringify!($field), "\":"));
        $codec::write_json($v, $out)
    }};
    (@member $out:ident, $v:expr, $index:expr, $field:ident, [flatten]) => {
        $crate::json::JsonObject::write_member($v, $index, $out)
    };

    // One field out of the object `value`.
    (@take $value:ident, $field:ident, []) => {
        $crate::json::FromJson::from_json($value.get(::core::stringify!($field))?)
            .map_err(|e| e.within(::core::stringify!($field)))?
    };
    (@take $value:ident, $field:ident, [], $default:expr) => {
        match $value.get_opt(::core::stringify!($field)) {
            Some(v) => $crate::json::FromJson::from_json(v)
                .map_err(|e| e.within(::core::stringify!($field)))?,
            None => $default,
        }
    };
    (@take $value:ident, $field:ident, [with $codec:ident]) => {
        $codec::from_json($value.get(::core::stringify!($field))?)
            .map_err(|e| e.within(::core::stringify!($field)))?
    };
    (@take $value:ident, $field:ident, [flatten]) => {
        $crate::json::FromJson::from_json($value)?
    };

    // Enum variants: the match pattern, the encoding of the tag and the
    // fields, and the decoded value. `$inner` binds a `(flatten)`
    // variant's field. The tag is the member whose field is `TAG`.
    (@pat $variant:ident {
        $($field:ident $([$($codec:tt)*])? $(= $default:expr)?),* $(,)?
    } $inner:ident) => {
        Self::$variant { $($field),* }
    };
    (@pat $variant:ident (flatten) $inner:ident) => {
        Self::$variant($inner)
    };
    (@write_variant $out:ident, $ty:ident, $tag:literal, $variant:ident $wire:literal {
        $($field:ident $([$($codec:tt)*])? $(= $default:expr)?),* $(,)?
    } $inner:ident) => {{
        #[allow(non_camel_case_types, dead_code)]
        enum Field { $($field),* }
        const TAG: usize = usize::MAX;
        const SOURCES: &[$crate::json::Source] = &[
            $crate::json::Source { field: TAG, keys: &[$tag] },
            $($crate::json::Source {
                field: Field::$field as usize,
                keys: $crate::json_codec!(@keys $field [$($($codec)*)?] |value: &$ty| match value {
                    $ty::$variant { $field, .. } => $field,
                    #[allow(unreachable_patterns)]
                    _ => ::core::unreachable!(),
                }),
            },)*
        ];
        $crate::json_codec!(@write_tagged $out, $tag, $wire, SOURCES, (field, index) {
            $(field if field == Field::$field as usize => $crate::json_codec!(
                @member $out, $field, index, $field, [$($($codec)*)?]
            ),)*
        })
    }};
    (@write_variant $out:ident, $ty:ident, $tag:literal, $variant:ident $wire:literal (flatten) $inner:ident) => {{
        const TAG: usize = usize::MAX;
        const SOURCES: &[$crate::json::Source] = &[
            $crate::json::Source { field: TAG, keys: &[$tag] },
            $crate::json::Source {
                field: 0,
                keys: $crate::json::keys_of(|value: &$ty| match value {
                    $ty::$variant(inner) => inner,
                    #[allow(unreachable_patterns)]
                    _ => ::core::unreachable!(),
                }),
            },
        ];
        $crate::json_codec!(@write_tagged $out, $tag, $wire, SOURCES, (field, index) {
            _ => $crate::json::JsonObject::write_member($inner, index, $out),
        })
    }};
    // Writes one variant's members, `TAG` being the tag's field in
    // `$sources`; `$arms` match `$field` to write any other member.
    (@write_tagged $out:ident, $tag:literal, $wire:literal, $sources:ident,
        ($field:ident, $index:ident) { $($arms:tt)* }) => {{
        const _: () = ::core::assert!($crate::json::plain($wire), "a wire name must need no escape");
        const MEMBERS: [$crate::json::Member; $crate::json::count($sources)] =
            $crate::json::members($sources);
        $crate::json::write_members(MEMBERS.len(), $out, |index, $out| {
            #[allow(unused_variables)]
            let $crate::json::Member { field: $field, index: $index, .. } = MEMBERS[index];
            match $field {
                TAG => $out.push_str(::core::concat!("\"", $tag, "\":\"", $wire, "\"")),
                $($arms)*
                #[allow(unreachable_patterns)]
                _ => ::core::unreachable!(),
            }
        })
    }};
    (@build $value:ident $variant:ident {
        $($field:ident $([$($codec:tt)*])? $(= $default:expr)?),* $(,)?
    }) => {
        Self::$variant {
            $($field: $crate::json_codec!(@take $value, $field, [$($($codec)*)?] $(, $default)?),)*
        }
    };
    (@build $value:ident $variant:ident (flatten)) => {
        Self::$variant($crate::json::FromJson::from_json($value)?)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse(r#""a\nb\u00e9\u0041""#).unwrap(), Json::Str("a\nbéA".into()));
        assert_eq!(Json::parse(r#""é\u00e9😀\ud83d\ude00\"""#).unwrap(), Json::Str("éé😀😀\"".into()));
        for (text, n) in [("0", 0.0), ("-0", 0.0), ("10", 10.0), ("0.5e-3", 0.0005), ("1E+2", 100.0)] {
            assert_eq!(Json::parse(text).unwrap(), Json::Num(n), "{text}");
        }
        assert_eq!(Json::parse(r#""\u00AFx""#).unwrap(), Json::Str("\u{af}x".into()));
    }

    #[test]
    fn parse_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "x");
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "nul", "01x", "\"unterminated",
            "[1] trailing", "{\"a\" 1}", "\"\\q\"", "\"é\u{1}\"", "\"é😀\n\"",
            // RFC 8259 numbers and `\u` escapes, nothing looser.
            "01", "00", "-01.5", "1.", "-.5", "1.e5", "-", "1e", "[01]", "\"\\u+041\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn encode_round_trips() {
        let v = Json::obj([
            ("frac", Json::Num(1.2345678901234567)),
            ("n", Json::Num(42.0)),
            ("s", Json::Str("line\n\"quote\"".into())),
            ("utf8", Json::Str("é\"\u{1}naïve\t😀\\😀".into())),
            ("arr", Json::Arr(vec![Json::Bool(false), Json::Null])),
            ("nested", Json::obj([("k", Json::Num(-7.0))])),
        ]);
        for text in [v.encode(), v.encode_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn direct_writes_match_tree_encoding() {
        fn same(value: &(impl ToJson + ?Sized)) {
            let mut out = String::from("prefix");
            value.write_json(&mut out);
            assert_eq!(out, format!("prefix{}", value.to_json().encode()));
        }
        let big = 2f64.powi(53);
        for n in [0.0, -0.0, 7.0, -42.0, big - 1.0, 1.0 - big, big, 1e300, -2.5e-8, 0.1, f64::NAN] {
            same(&n);
            let mut out = String::new();
            n.write_json(&mut out);
            assert!(n.is_nan() || Json::parse(&out).unwrap() == Json::Num(n), "{out}");
        }
        for n in [0u64, 9, 10, 1 << 53, u64::MAX] {
            same(&n);
        }
        let controls: String = (0u8..0x20).map(char::from).collect();
        for s in ["", "plain", "é\"\u{1}naïve\t😀\\😀", "\u{7f}/", "tail\\", &controls] {
            same(s);
            same(&Some(s.to_string()));
            let mut out = String::new();
            s.write_json(&mut out);
            assert_eq!(Json::parse(&out).unwrap(), Json::Str(s.into()), "{out}");
        }
        same(&vec![vec![true, false], vec![]]);
        same(&None::<f64>);
        same(&Json::obj([("b", Json::Arr(vec![])), ("a", Json::obj([]))]));
    }

    #[test]
    fn encoding_is_deterministic() {
        let make = || {
            Json::obj([
                ("z", Json::Num(1.0)),
                ("a", Json::Num(2.0)),
                ("m", Json::Arr(vec![Json::Str("x".into())])),
            ])
        };
        assert_eq!(make().encode_pretty(), make().encode_pretty());
        // Keys come out sorted regardless of insertion order.
        assert!(make().encode().starts_with(r#"{"a":"#));
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Just inside the cap parses; just past it errors. Far past it
        // (a would-be stack overflow) also errors — that's the point.
        let ok = format!("{}null{}", "[".repeat(MAX_PARSE_DEPTH), "]".repeat(MAX_PARSE_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        for depth in [MAX_PARSE_DEPTH + 1, 200_000] {
            let deep = "[".repeat(depth);
            assert!(Json::parse(&deep).is_err(), "depth {depth} must error");
            let objs = "{\"k\":".repeat(depth);
            assert!(Json::parse(&objs).is_err(), "object depth {depth} must error");
        }
    }

    #[test]
    fn overflowing_numbers_are_rejected() {
        for bad in ["1e999", "-1e999", "1e309", "123456789e400"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
        // Large-but-finite still parses.
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
    }

    #[test]
    fn surrogate_pairs() {
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn string_parsing_is_linear_in_input_size() {
        // Per byte, a long string must parse about as fast as an array of
        // numbers of the same size; a per-character rescan of the rest of
        // the input costs ~1,000x more at 64 KiB.
        const SIZE: usize = 64 * 1024;
        let string = format!("\"{}\"", "é😀abcd".repeat(SIZE / 10));
        let numbers = format!("[{}1]", "12345,".repeat(SIZE / 6));
        let per_byte = |doc: &str| {
            let best = (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    Json::parse(doc).unwrap();
                    start.elapsed()
                })
                .min()
                .unwrap();
            best.as_secs_f64() / doc.len() as f64
        };
        let ratio = per_byte(&string) / per_byte(&numbers);
        assert!(ratio <= 10.0, "string parse costs {ratio:.1}x numbers per byte");
    }

    mod hex {
        use super::*;

        pub fn write_json(v: &u64, out: &mut String) {
            format!("{v:x}").write_json(out);
        }

        pub fn from_json(value: &Json) -> Result<u64> {
            u64::from_str_radix(value.as_str()?, 16).map_err(|e| JsonError::new(e.to_string()))
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Id {
        id: u64,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Rec {
        owner: Id,
        n: u32,
        label: Option<String>,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Put { rec: Rec, seq: Option<u64> },
        Flat(Box<Rec>),
        Ping,
    }

    crate::json_codec! { Id { id [with hex] } }
    crate::json_codec! { Rec { owner [flatten], n, label = None } }
    crate::json_codec! {
        enum Msg tag "op" { Put "put" { rec, seq = None }, Flat "flat" (flatten), Ping "ping" {} }
    }

    /// Flattened into [`Outer`] and [`Shape`], whose own keys and tag sort
    /// between its keys.
    #[derive(Debug, Clone, PartialEq)]
    struct Span {
        a: u32,
        m: u32,
        z: u32,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        y: u32,
        span: Span,
        b: u32,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Sized { width: u32, span: Span, area: u32 },
        Wrapped(Box<Outer>),
    }

    crate::json_codec! { Span { z, a, m } }
    crate::json_codec! { Outer { y, span [flatten], b } }
    crate::json_codec! {
        enum Shape tag "kind" { Sized "sized" { width, span [flatten], area }, Wrapped "wrapped" (flatten) }
    }

    #[test]
    fn declared_codecs_round_trip_and_name_the_field() {
        let rec = Rec { owner: Id { id: 255 }, n: 3, label: None };
        let flat = Msg::Flat(Box::new(rec.clone()));
        assert_eq!(flat.to_json().encode(), r#"{"id":"ff","label":null,"n":3,"op":"flat"}"#);
        assert_eq!(Msg::Ping.to_json().encode(), r#"{"op":"ping"}"#);
        let put = |seq| Msg::Put { rec: rec.clone(), seq };
        for msg in [put(Some(4)), put(None), flat, Msg::Ping] {
            let text = msg.to_json().encode();
            let mut direct = String::new();
            msg.write_json(&mut direct);
            assert_eq!(direct, text, "direct write sorts flattened members and the tag");
            assert_eq!(Msg::from_json(&Json::parse(&text).unwrap()).unwrap(), msg, "{text}");
        }
        // Flattened keys sort before, between and after the record's own,
        // and the tag between a variant's fields, whatever the declared
        // order.
        let span = Span { a: 1, m: 3, z: 5 };
        let outer = Outer { y: 4, span: span.clone(), b: 2 };
        let sized = Shape::Sized { width: 6, span, area: 0 };
        let wrapped = Shape::Wrapped(Box::new(outer.clone()));
        let mut direct = String::new();
        outer.write_json(&mut direct);
        assert_eq!(direct, r#"{"a":1,"b":2,"m":3,"y":4,"z":5}"#);
        assert_eq!(Outer::from_json(&Json::parse(&direct).unwrap()).unwrap(), outer);
        for (shape, text) in [
            (sized, r#"{"a":1,"area":0,"kind":"sized","m":3,"width":6,"z":5}"#),
            (wrapped, r#"{"a":1,"b":2,"kind":"wrapped","m":3,"y":4,"z":5}"#),
        ] {
            let mut direct = String::new();
            shape.write_json(&mut direct);
            assert_eq!(direct, text);
            assert_eq!(Shape::from_json(&Json::parse(text).unwrap()).unwrap(), shape);
        }
        for (text, needle) in [
            (r#"{"op":"pong"}"#, r#"unknown op "pong""#),
            (r#"{"op":"flat","id":"zz","n":1}"#, "id: "),
            (r#"{"op":"put","rec":{"id":"ff","n":-1}}"#, "rec: n: "),
            (r#"{"op":"put","rec":{"id":"ff"}}"#, r#"rec: missing key "n""#),
        ] {
            let err = Msg::from_json(&Json::parse(text).unwrap()).unwrap_err().to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn later_duplicate_members_win() {
        let parsed = Json::parse(r#"{"a":1,"b":2,"a":3}"#).unwrap();
        assert_eq!(parsed.encode(), r#"{"a":3,"b":2}"#);
        let built: Map = [("k", Json::Num(1.0)), ("k", Json::Num(2.0))].into_iter().collect();
        assert_eq!(built.get("k"), Some(&Json::Num(2.0)));
        assert_eq!(built.len(), 1);
        let mut map = built.clone();
        assert_eq!(map.insert("k", Json::Null), Some(Json::Num(2.0)));
        assert_eq!(map.insert(String::from("j"), Json::Null), None);
        map.extend([("j", Json::Bool(true)), ("l", Json::Null)]);
        assert_eq!(Json::Obj(map).encode(), r#"{"j":true,"k":null,"l":null}"#);
    }

    #[test]
    fn members_out_of_order_come_back_sorted() {
        let parsed = Json::parse(r#"{"z":1,"é":[],"a":{"y":null,"b":true},"B":"x"}"#).unwrap();
        let Json::Obj(map) = &parsed else {
            panic!("an object")
        };
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["B", "a", "z", "é"], "byte order, as BTreeMap<String, _> sorts");
        assert_eq!(parsed.encode(), r#"{"B":"x","a":{"b":true,"y":null},"z":1,"é":[]}"#);
        let debug = r#"{"B": Str("x"), "a": Obj({"b": Bool(true), "y": Null}), "z": Num(1.0), "é": Arr([])}"#;
        assert_eq!(format!("{map:?}"), debug);
    }

    #[test]
    fn long_escaped_and_non_ascii_keys() {
        assert_eq!(std::mem::size_of::<Key>(), 24, "a key is as small as a boxed one");
        let inline = "k".repeat(INLINE_KEY_LEN);
        let heap = "k".repeat(INLINE_KEY_LEN + 1);
        let wide = "é".repeat(INLINE_KEY_LEN / 2);
        let wider = format!("{wide}k");
        // Each key as the input spells it, then as it decodes.
        let keys = [
            (inline.as_str(), inline.as_str()),
            (&heap, &heap),
            (&wide, &wide),
            (&wider, &wider),
            ("", ""),
            (r"tab\t", "tab\t"),
            (r#"q\"uote"#, "q\"uote"),
            ("😀", "😀"),
            (r"\u0000", "\0"),
        ];
        let members: Vec<String> =
            keys.iter().enumerate().map(|(i, (text, _))| format!("\"{text}\":{i}")).collect();
        let parsed = Json::parse(&format!("{{{}}}", members.join(","))).unwrap();
        for (i, (_, decoded)) in keys.into_iter().enumerate() {
            assert_eq!(parsed.get(decoded), Ok(&Json::Num(i as f64)), "{decoded:?}");
            assert_eq!(Key::from(decoded).as_str(), decoded);
            assert_eq!(Key::from(decoded.to_string()).as_bytes(), decoded.as_bytes());
        }
        assert_eq!(Json::parse(&parsed.encode()).unwrap(), parsed);
        assert_eq!(Json::parse(&parsed.encode_pretty()).unwrap(), parsed);
        assert!(Key::from(heap.as_str()) > Key::from(inline.as_str()));
        assert!(Key::from("é") > Key::from("z"));
        assert_eq!(&*Key::from(wider.clone()), wider);
    }

    /// Random trees, each with a text that spells it with every object's
    /// members reversed and a `null` decoy before each member a later
    /// duplicate must override.
    #[derive(Debug)]
    struct Trees;

    impl crate::proptest::Strategy for Trees {
        type Value = (Json, String);

        fn generate(&self, rng: &mut crate::rng::StdRng) -> (Json, String) {
            let tree = random_tree(rng, 0);
            let mut scrambled = String::new();
            write_scrambled(&tree, &mut scrambled);
            (tree, scrambled)
        }
    }

    fn random_tree(rng: &mut crate::rng::StdRng, depth: usize) -> Json {
        const KEYS: [&str; 10] = [
            "a", "b", "op", "sample_fraction", "exactly_twenty_two_byt", "twenty_three_bytes_long",
            "é", "naïve\"key\"", "tab\tkey", "",
        ];
        match rng.gen_range(0..if depth < 4 { 7u32 } else { 4 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Num(match rng.gen_range(0..3u32) {
                0 => rng.gen_range(0..1u64 << 53) as f64 - 1e15,
                1 => (rng.gen_f64() - 0.5) * 10f64.powi(rng.gen_range(-300..300i32)),
                _ => rng.gen_f64(),
            }),
            3 => Json::Str(KEYS[rng.gen_range(0..KEYS.len())].repeat(rng.gen_range(0..3usize))),
            4 => Json::Arr((0..rng.gen_range(0..5usize)).map(|_| random_tree(rng, depth + 1)).collect()),
            _ => Json::Obj(
                (0..rng.gen_range(0..8usize))
                    .map(|_| (KEYS[rng.gen_range(0..KEYS.len())], random_tree(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    fn write_scrambled(value: &Json, out: &mut String) {
        match value {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_scrambled(item, out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                let mut reversed: Vec<_> = map.iter().collect();
                reversed.reverse();
                out.push('{');
                for (key, _) in &reversed {
                    write_string(out, key);
                    out.push_str(":null,");
                }
                for (i, (key, item)) in reversed.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    write_scrambled(item, out);
                }
                out.push('}');
            }
            other => other.encode_into(out),
        }
    }

    crate::proptest! {
        #[test]
        fn parse_round_trips_random_trees(case in Trees) {
            let (tree, scrambled) = case;
            crate::prop_assert_eq!(&Json::parse(&tree.encode()).unwrap(), &tree);
            crate::prop_assert_eq!(&Json::parse(&tree.encode_pretty()).unwrap(), &tree);
            crate::prop_assert_eq!(&Json::parse(&scrambled).unwrap(), &tree, "{}", scrambled);
        }
    }

    #[test]
    fn typed_conversions() {
        assert_eq!(u32::from_json(&Json::Num(7.0)).unwrap(), 7);
        assert!(u32::from_json(&Json::Num(7.5)).is_err());
        assert!(u32::from_json(&Json::Num(-1.0)).is_err());
        assert_eq!(
            Vec::<f64>::from_json(&Json::parse("[1, 2]").unwrap()).unwrap(),
            vec![1.0, 2.0]
        );
        assert_eq!(Option::<f64>::from_json(&Json::Null).unwrap(), None);
    }
}
