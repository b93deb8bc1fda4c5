//! The dynamically typed value model.
//!
//! EFind's interfaces (Figure 2 of the paper) pass Hadoop `Writable`s between
//! `preProcess`, `lookup`, and `postProcess`. [`Datum`] is the Rust
//! equivalent: an owned, ordered, hashable value with a well-defined binary
//! encoding and a byte-size measure. The size measure feeds the cost model
//! (every `S*` term in Table 1 is a sum of `Datum::size_bytes`).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};

/// A dynamically typed value.
///
/// `Datum` implements total ordering and hashing (floats order by
/// `total_cmp` and hash by bit pattern), so it can serve as a MapReduce key,
/// an index lookup key, or a cache key.
#[derive(Clone, Debug, Default)]
pub enum Datum {
    /// The absent value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float. Ordered with `total_cmp`, hashed by bit pattern.
    Float(f64),
    /// A UTF-8 string.
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// A heterogeneous list, used for composite keys and multi-field
    /// values.
    List(Vec<Datum>),
}

/// The static type of an index lookup key.
///
/// Used by the static plan analyzer to catch key-type mismatches between
/// what an operator's `preProcess` emits and what an accessor expects
/// (diagnostic `EF007`) before the job runs. `Any` means "undeclared /
/// accepts everything" and is compatible with every kind, so declaring
/// kinds is always opt-in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KeyKind {
    /// Undeclared; compatible with every kind.
    #[default]
    Any,
    /// [`Datum::Bool`] keys.
    Bool,
    /// [`Datum::Int`] keys.
    Int,
    /// [`Datum::Float`] keys.
    Float,
    /// [`Datum::Text`] keys.
    Text,
    /// [`Datum::Bytes`] keys.
    Bytes,
    /// [`Datum::List`] (composite) keys.
    List,
}

impl KeyKind {
    /// True when a key of kind `self` can be served by an accessor
    /// declaring `other` (either side being [`KeyKind::Any`] matches).
    pub fn compatible(self, other: KeyKind) -> bool {
        self == KeyKind::Any || other == KeyKind::Any || self == other
    }

    /// Short label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            KeyKind::Any => "any",
            KeyKind::Bool => "bool",
            KeyKind::Int => "int",
            KeyKind::Float => "float",
            KeyKind::Text => "text",
            KeyKind::Bytes => "bytes",
            KeyKind::List => "list",
        }
    }
}

/// Encoding tags of the two kinds other wire formats build on.
const NULL_TAG: u8 = 0;
const LIST_TAG: u8 = 6;

impl Datum {
    /// Returns a stable discriminant used for cross-variant ordering and the
    /// binary encoding tag.
    fn tag(&self) -> u8 {
        match self {
            Datum::Null => NULL_TAG,
            Datum::Bool(_) => 1,
            Datum::Int(_) => 2,
            Datum::Float(_) => 3,
            Datum::Text(_) => 4,
            Datum::Bytes(_) => 5,
            Datum::List(_) => LIST_TAG,
        }
    }

    /// Serialized size in bytes: exactly the length of [`Datum::encode`]'s
    /// output (one tag byte, plus a fixed-width payload or a 4-byte length
    /// and the contents).
    ///
    /// This is the measure behind every size statistic in the paper's cost
    /// model (Table 1). Code that sizes a buffer before encoding into it
    /// (the flat carrier payload) relies on the equality.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Datum::Null => 1,
            Datum::Bool(_) => 2,
            Datum::Int(_) => 9,
            Datum::Float(_) => 9,
            Datum::Text(s) => 5 + s.len() as u64,
            Datum::Bytes(b) => 5 + b.len() as u64,
            Datum::List(items) => 5 + items.iter().map(Datum::size_bytes).sum::<u64>(),
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload; integers are widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            Datum::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte payload, if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Datum::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the list payload, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Datum]> {
        match self {
            Datum::List(items) => Some(items),
            _ => None,
        }
    }

    /// Consumes the datum and returns the list payload, if this is a `List`.
    pub fn into_list(self) -> Option<Vec<Datum>> {
        match self {
            Datum::List(items) => Some(items),
            _ => None,
        }
    }

    /// True if this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Builds a composite key from parts.
    pub fn composite(parts: impl IntoIterator<Item = Datum>) -> Datum {
        Datum::List(parts.into_iter().collect())
    }

    /// Appends the binary encoding of `self` to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Datum::Null => {}
            Datum::Bool(v) => out.push(*v as u8),
            Datum::Int(v) => out.extend_from_slice(&v.to_le_bytes()),
            Datum::Float(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
            Datum::Text(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Datum::Bytes(b) => {
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
            Datum::List(items) => {
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    item.encode_into(out);
                }
            }
        }
    }

    /// Appends the header of a list of `len` elements. Followed by the
    /// encodings of the elements, it is byte for byte what
    /// [`Datum::encode_into`] writes for the `List` holding them — for
    /// callers that encode a list they do not hold as a `Datum`.
    pub fn encode_list_header(len: usize, out: &mut Vec<u8>) {
        out.push(LIST_TAG);
        out.extend_from_slice(&(len as u32).to_le_bytes());
    }

    /// Returns the binary encoding of `self`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes() as usize);
        self.encode_into(&mut out);
        out
    }

    /// Decodes one datum from the front of `buf`, returning it and the rest.
    pub fn decode_from(buf: &[u8]) -> Result<(Datum, &[u8])> {
        let (&tag, rest) = buf
            .split_first()
            .ok_or_else(|| Error::Decode("empty buffer".into()))?;
        match tag {
            NULL_TAG => Ok((Datum::Null, rest)),
            1 => {
                let (&b, rest) = rest
                    .split_first()
                    .ok_or_else(|| Error::Decode("truncated bool".into()))?;
                Ok((Datum::Bool(b != 0), rest))
            }
            2 => {
                let (head, rest) = split_n(rest, 8, "int")?;
                Ok((
                    Datum::Int(i64::from_le_bytes(head.try_into().unwrap())),
                    rest,
                ))
            }
            3 => {
                let (head, rest) = split_n(rest, 8, "float")?;
                let bits = u64::from_le_bytes(head.try_into().unwrap());
                Ok((Datum::Float(f64::from_bits(bits)), rest))
            }
            4 => {
                let (payload, rest) = split_len_prefixed(rest, "text")?;
                Ok((Datum::Text(utf8(payload)?.to_owned()), rest))
            }
            5 => {
                let (payload, rest) = split_len_prefixed(rest, "bytes")?;
                Ok((Datum::Bytes(payload.to_vec()), rest))
            }
            LIST_TAG => {
                let (items, rest) = decode_items(rest, Datum::decode_from)?;
                Ok((Datum::List(items), rest))
            }
            other => Err(Error::Decode(format!("unknown datum tag {other}"))),
        }
    }

    /// Decodes one datum from the front of `buf` over `slot`, returning the
    /// rest: [`Datum::decode_from`]'s datum, written into the storage `slot`
    /// already has. A `Text`, `Bytes` or `List` slot that decodes to its
    /// own kind keeps its buffer — a list its elements', recursively — and
    /// grows it only as far as the input backs; any other slot takes a
    /// freshly decoded datum. On an error `slot` is left part old, part new.
    pub fn decode_in_place<'a>(slot: &mut Datum, buf: &'a [u8]) -> Result<&'a [u8]> {
        match (slot, buf.split_first()) {
            (Datum::Text(held), Some((4, rest))) => {
                let (payload, rest) = split_len_prefixed(rest, "text")?;
                let text = utf8(payload)?;
                held.clear();
                held.reserve_exact(text.len());
                held.push_str(text);
                Ok(rest)
            }
            (Datum::Bytes(held), Some((5, rest))) => {
                let (payload, rest) = split_len_prefixed(rest, "bytes")?;
                held.clear();
                held.reserve_exact(payload.len());
                held.extend_from_slice(payload);
                Ok(rest)
            }
            (Datum::List(held), Some((&LIST_TAG, _))) => {
                Datum::decode_list_in_place(buf, held, Datum::decode_in_place)
            }
            (slot, _) => {
                let (datum, rest) = Datum::decode_from(buf)?;
                *slot = datum;
                Ok(rest)
            }
        }
    }

    /// Decodes an encoded list from the front of `buf`, reading each
    /// element with `item` rather than as a `Datum` (the inverse of
    /// [`Datum::encode_list_header`] plus the caller's elements).
    pub fn decode_list_with<'a, T>(
        buf: &'a [u8],
        item: impl FnMut(&'a [u8]) -> Result<(T, &'a [u8])>,
    ) -> Result<(Vec<T>, &'a [u8])> {
        decode_items(strip_list_tag(buf)?, item)
    }

    /// Decodes an encoded list from the front of `buf` into `out`, element
    /// by element and in place: `out` comes to hold exactly the list's
    /// elements, `item` writing each over what `out` held at its position
    /// (a default value where `out` was shorter). A caller that keeps `out`
    /// between lists keeps its buffer and whatever its elements own; no
    /// `Vec` is built. Returns the rest of `buf`; on an error `out` is left
    /// part old, part new.
    pub fn decode_list_in_place<'a, T: Default>(
        buf: &'a [u8],
        out: &mut Vec<T>,
        mut item: impl FnMut(&mut T, &'a [u8]) -> Result<&'a [u8]>,
    ) -> Result<&'a [u8]> {
        let (n, mut rest) = list_len(strip_list_tag(buf)?)?;
        out.truncate(n);
        out.reserve(n.min(rest.len()).saturating_sub(out.len()));
        for i in 0..n {
            match out.get_mut(i) {
                Some(held) => rest = item(held, rest)?,
                // Pushed once it has parsed: a count the input cannot back
                // grows `out` no further than the reservation above.
                None => {
                    let mut fresh = T::default();
                    rest = item(&mut fresh, rest)?;
                    out.push(fresh);
                }
            }
        }
        Ok(rest)
    }

    /// The rest of `buf` when the datum at its front is `Null`.
    pub fn strip_null(buf: &[u8]) -> Option<&[u8]> {
        buf.strip_prefix(&[NULL_TAG])
    }

    /// The length of the encoding at the front of `buf` — what
    /// [`Datum::size_bytes`] says of the datum it encodes — found by reading
    /// tags and length prefixes only: nothing is decoded and nothing is
    /// allocated. Truncation and unknown tags are `Error::Decode`, as in
    /// [`Datum::decode_from`].
    pub fn encoded_len(buf: &[u8]) -> Result<usize> {
        let (&tag, rest) = buf
            .split_first()
            .ok_or_else(|| Error::Decode("empty buffer".into()))?;
        let body = match tag {
            NULL_TAG => 0,
            1 => 1,
            2 | 3 => 8,
            4 | 5 => 4 + split_len_prefixed(rest, "string")?.0.len(),
            LIST_TAG => {
                let (n, items) = list_len(rest)?;
                let mut at = 0;
                for _ in 0..n {
                    at += Datum::encoded_len(&items[at..])?;
                }
                4 + at
            }
            other => return Err(Error::Decode(format!("unknown datum tag {other}"))),
        };
        if body > rest.len() {
            return Err(Error::Decode("truncated datum".into()));
        }
        Ok(1 + body)
    }

    /// Decodes a datum that must consume the whole buffer.
    pub fn decode(buf: &[u8]) -> Result<Datum> {
        let (d, rest) = Datum::decode_from(buf)?;
        if rest.is_empty() {
            Ok(d)
        } else {
            Err(Error::Decode(format!("{} trailing bytes", rest.len())))
        }
    }
}

/// The rest of `buf` behind the tag of the list at its front.
fn strip_list_tag(buf: &[u8]) -> Result<&[u8]> {
    match buf.split_first() {
        Some((&LIST_TAG, rest)) => Ok(rest),
        Some((&tag, _)) => Err(Error::Decode(format!("expected a list, found tag {tag}"))),
        None => Err(Error::Decode("empty buffer".into())),
    }
}

/// A list's element count `n`, and the rest of `buf` where its elements
/// start.
///
/// The count comes from the input, so it bounds a reservation only as far
/// as the input can back it — `n.min(rest.len())`: every element takes at
/// least one byte.
fn list_len(buf: &[u8]) -> Result<(usize, &[u8])> {
    let (head, rest) = split_n(buf, 4, "list len")?;
    Ok((u32::from_le_bytes(head.try_into().unwrap()) as usize, rest))
}

/// Reads a list's element count and then its elements with `item`.
fn decode_items<'a, T>(
    buf: &'a [u8],
    mut item: impl FnMut(&'a [u8]) -> Result<(T, &'a [u8])>,
) -> Result<(Vec<T>, &'a [u8])> {
    let (n, mut rest) = list_len(buf)?;
    let mut items = Vec::with_capacity(n.min(rest.len()));
    for _ in 0..n {
        let (it, r) = item(rest)?;
        items.push(it);
        rest = r;
    }
    Ok((items, rest))
}

fn split_n<'a>(buf: &'a [u8], n: usize, what: &str) -> Result<(&'a [u8], &'a [u8])> {
    if buf.len() < n {
        return Err(Error::Decode(format!("truncated {what}")));
    }
    Ok(buf.split_at(n))
}

fn utf8(payload: &[u8]) -> Result<&str> {
    std::str::from_utf8(payload).map_err(|e| Error::Decode(format!("invalid utf-8: {e}")))
}

fn split_len_prefixed<'a>(buf: &'a [u8], what: &str) -> Result<(&'a [u8], &'a [u8])> {
    let (head, rest) = split_n(buf, 4, what)?;
    let len = u32::from_le_bytes(head.try_into().unwrap()) as usize;
    split_n(rest, len, what)
}

/// Two datums are equal exactly when their encodings are: `Int` and
/// `Float` never compare `Equal`, floats compare by bit pattern
/// (`total_cmp`: `0.0 != -0.0`, NaNs with different payloads differ), text,
/// bytes and lists compare element by element, and every encoding is
/// self-delimiting. The shuffle groups keys by their bytes on the strength
/// of it; a property test in `tests/proptests.rs` pins it.
impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Datum {
    fn cmp(&self, other: &Self) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Mixed numerics compare by value so `Int(1) < Float(1.5)` holds,
            // with total_cmp tie-break falling back to tag order.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b).then(Ordering::Less),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)).then(Ordering::Greater),
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (a, b) => a.tag().cmp(&b.tag()),
        }
    }
}

impl Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.tag());
        match self {
            Datum::Null => {}
            Datum::Bool(v) => state.write_u8(*v as u8),
            Datum::Int(v) => state.write_i64(*v),
            Datum::Float(v) => state.write_u64(v.to_bits()),
            Datum::Text(s) => state.write(s.as_bytes()),
            Datum::Bytes(b) => state.write(b),
            Datum::List(items) => {
                state.write_usize(items.len());
                for item in items {
                    item.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "null"),
            Datum::Bool(v) => write!(f, "{v}"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Text(s) => write!(f, "{s}"),
            Datum::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Datum::List(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}

impl From<i32> for Datum {
    fn from(v: i32) -> Self {
        Datum::Int(v as i64)
    }
}

impl From<u32> for Datum {
    fn from(v: u32) -> Self {
        Datum::Int(v as i64)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}

impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Text(v.to_owned())
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Text(v)
    }
}

impl From<Vec<u8>> for Datum {
    fn from(v: Vec<u8>) -> Self {
        Datum::Bytes(v)
    }
}

impl From<Vec<Datum>> for Datum {
    fn from(v: Vec<Datum>) -> Self {
        Datum::List(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(d: &Datum) -> u64 {
        let mut h = DefaultHasher::new();
        d.hash(&mut h);
        h.finish()
    }

    #[test]
    fn key_kind_compatibility() {
        assert!(KeyKind::Any.compatible(KeyKind::Int));
        assert!(KeyKind::Int.compatible(KeyKind::Any));
        assert!(KeyKind::Int.compatible(KeyKind::Int));
        assert!(!KeyKind::Int.compatible(KeyKind::Text));
    }

    #[test]
    fn roundtrip_all_variants() {
        let values = vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Bool(false),
            Datum::Int(-42),
            Datum::Int(i64::MAX),
            Datum::Float(3.5),
            Datum::Float(f64::NEG_INFINITY),
            Datum::Text("hello world".into()),
            Datum::Text(String::new()),
            Datum::Bytes(vec![0, 255, 1, 2]),
            Datum::List(vec![Datum::Int(1), Datum::Text("x".into()), Datum::Null]),
            Datum::List(vec![]),
        ];
        for v in values {
            let enc = v.encode();
            let dec = Datum::decode(&enc).unwrap();
            assert_eq!(v, dec, "roundtrip of {v:?}");
        }
    }

    #[test]
    fn nested_list_roundtrip() {
        let v = Datum::List(vec![
            Datum::List(vec![Datum::Int(1), Datum::Int(2)]),
            Datum::List(vec![Datum::Text("a".into())]),
        ]);
        assert_eq!(Datum::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut enc = Datum::Int(5).encode();
        enc.push(0);
        assert!(Datum::decode(&enc).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = Datum::Text("hello".into()).encode();
        for cut in 0..enc.len() {
            assert!(Datum::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn ordering_within_variant() {
        assert!(Datum::Int(1) < Datum::Int(2));
        assert!(Datum::Text("a".into()) < Datum::Text("b".into()));
        assert!(Datum::Float(1.0) < Datum::Float(2.0));
        assert!(Datum::Bytes(vec![1]) < Datum::Bytes(vec![2]));
        assert!(Datum::List(vec![Datum::Int(1)]) < Datum::List(vec![Datum::Int(2)]));
    }

    #[test]
    fn ordering_across_variants_is_total() {
        let vals = [
            Datum::Null,
            Datum::Bool(false),
            Datum::Int(0),
            Datum::Text("".into()),
            Datum::Bytes(vec![]),
            Datum::List(vec![]),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert!(Datum::Int(1) < Datum::Float(1.5));
        assert!(Datum::Float(0.5) < Datum::Int(1));
    }

    #[test]
    fn float_nan_is_orderable_and_hashable() {
        let nan = Datum::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(hash_of(&nan), hash_of(&nan));
    }

    #[test]
    fn equal_values_hash_equal() {
        let a = Datum::List(vec![Datum::Int(7), Datum::Text("k".into())]);
        let b = Datum::List(vec![Datum::Int(7), Datum::Text("k".into())]);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn size_bytes_is_the_encoding_length() {
        let values = vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Int(9),
            Datum::Float(0.5),
            Datum::Text("abcdef".into()),
            Datum::Bytes(vec![1; 100]),
            Datum::List(vec![Datum::Int(1); 10]),
            Datum::List(vec![]),
        ];
        for v in values {
            assert_eq!(v.size_bytes(), v.encode().len() as u64, "{v:?}");
        }
    }

    #[test]
    fn list_helpers_match_the_list_encoding() {
        let items = vec![Datum::Int(1), Datum::Null, Datum::Text("x".into())];
        let mut buf = Vec::new();
        Datum::encode_list_header(items.len(), &mut buf);
        for item in &items {
            item.encode_into(&mut buf);
        }
        buf.push(0xAB);
        assert_eq!(
            buf[..buf.len() - 1],
            Datum::List(items.clone()).encode()[..]
        );
        let (decoded, rest) = Datum::decode_list_with(&buf, Datum::decode_from).unwrap();
        assert_eq!((decoded, rest), (items.clone(), &[0xAB][..]));

        // In place: over a longer list, a shorter one and an empty one, the
        // storage comes to hold the list and nothing of what it held.
        let datum = |d: &mut Datum, b| {
            let (v, rest) = Datum::decode_from(b)?;
            *d = v;
            Ok(rest)
        };
        for mut out in [vec![Datum::Int(9); 5], vec![Datum::Bool(true)], vec![]] {
            let rest = Datum::decode_list_in_place(&buf, &mut out, datum).unwrap();
            assert_eq!((&out, rest), (&items, &[0xAB][..]));
        }
        let mut out = vec![Datum::Int(9); 5];
        for bad in [&[][..], &Datum::Int(1).encode(), &buf[..buf.len() - 4]] {
            match Datum::decode_list_in_place(bad, &mut out, datum) {
                Err(Error::Decode(_)) => {}
                other => panic!("expected a decode error, got {other:?}"),
            }
        }

        assert!(Datum::decode_list_with(&[], Datum::decode_from).is_err());
        assert!(Datum::decode_list_with(&Datum::Int(1).encode(), Datum::decode_from).is_err());
        assert_eq!(Datum::strip_null(&[0, 7]), Some(&[7u8][..]));
        assert_eq!(Datum::strip_null(&buf), None);
        assert_eq!(Datum::strip_null(&[]), None);
    }

    #[test]
    fn accessors() {
        assert_eq!(Datum::Int(3).as_int(), Some(3));
        assert_eq!(Datum::Int(3).as_float(), Some(3.0));
        assert_eq!(Datum::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Datum::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Datum::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
        assert!(Datum::Null.is_null());
        assert_eq!(Datum::Text("x".into()).as_int(), None);
    }
}
