//! The `(key, value)` pair flowing through MapReduce and EFind operators.

use crate::Datum;

/// A MapReduce record: the `(k1, v1)` / `(k2, v2)` pairs of Figure 2.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Record {
    /// The record key (grouping key in shuffles).
    pub key: Datum,
    /// The record value.
    pub value: Datum,
}

impl Record {
    /// Creates a record from anything convertible to [`Datum`].
    pub fn new(key: impl Into<Datum>, value: impl Into<Datum>) -> Self {
        Record {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Total serialized size — the length of [`Record::encode`]'s output —
    /// and the unit of every `S*` statistic in the paper's Table 1.
    pub fn size_bytes(&self) -> u64 {
        self.key.size_bytes() + self.value.size_bytes()
    }

    /// Encodes key then value.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes() as usize);
        self.key.encode_into(&mut out);
        self.value.encode_into(&mut out);
        out
    }

    /// Decodes a record previously produced by [`Record::encode`].
    pub fn decode(buf: &[u8]) -> crate::Result<Record> {
        let (key, rest) = Datum::decode_from(buf)?;
        let value = Datum::decode(rest)?;
        Ok(Record { key, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let r = Record::new(7i64, "payload");
        assert_eq!(Record::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn size_is_sum_of_parts() {
        let r = Record::new("k", "value");
        assert_eq!(r.size_bytes(), r.key.size_bytes() + r.value.size_bytes());
    }
}
