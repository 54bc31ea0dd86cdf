//! The one byte codec of every binary format: the log's records, the
//! catalog, the model's image rows and schema, replication seeds, both
//! statistics images and the wire's payloads.
//!
//! Integers and floats are little-endian; a byte string is a `u32`
//! length and its bytes; a collection is a `u32` count and its items.
//! [`Reader`] is the one way back. It is total over hostile input: every
//! read is bounds-checked, a length or count is refused before anything
//! is allocated for it when the bytes left could not back it, a `bool`
//! is 0 or 1, and [`Reader::finish`] refuses trailing bytes. Each
//! format's owner maps [`Error`] into its own error type.

use std::fmt;

/// Why bytes failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The bytes ended inside a field, or a length or count claims more
    /// bytes than remain.
    Truncated,
    /// Bytes remain after the last field.
    Trailing(usize),
    /// A string's bytes are not UTF-8.
    BadUtf8,
    /// The named field holds a value the format does not define: a tag,
    /// a `bool` byte other than 0 or 1, a count past a limit.
    Invalid(&'static str, u64),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated => write!(f, "truncated"),
            Error::Trailing(n) => write!(f, "{n} trailing bytes"),
            Error::BadUtf8 => write!(f, "non-UTF-8 string"),
            Error::Invalid(what, v) => write!(f, "bad {what} {v}"),
        }
    }
}

impl std::error::Error for Error {}

/// The codec's result.
pub type Result<T> = std::result::Result<T, Error>;

/// A bounds-checked cursor over encoded bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps encoded bytes.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Unread byte count.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was read.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(Error::Trailing(n)),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(Error::Truncated)?;
        let b = self.buf.get(self.pos..end).ok_or(Error::Truncated)?;
        self.pos = end;
        Ok(b)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Reads a byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a `bool` written as 0 or 1; any other byte is malformed.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(Error::Invalid("bool byte", v.into())),
        }
    }

    /// Reads a length-prefixed byte string. A length beyond the bytes
    /// left is refused before anything is allocated.
    #[inline]
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(Error::Truncated);
        }
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| Error::BadUtf8)
    }

    /// Reads a collection count, bounded by the bytes that could back it
    /// (`min_item_bytes` per item), so a hostile count cannot make a
    /// caller preallocate unbounded memory.
    #[inline]
    pub fn len(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(Error::Truncated);
        }
        Ok(n)
    }

    /// Reads a collection: its count (bounded as by [`len`](Self::len)),
    /// then that many items, each read by `item`.
    #[inline]
    pub fn list<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.len(min_item_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

/// Appends a length-prefixed byte string.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_len(out, b.len());
    out.extend_from_slice(b);
}

/// Appends a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends a collection count (or a byte string's length).
#[inline]
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut out = vec![7, 1];
        out.extend_from_slice(&513u16.to_le_bytes());
        out.extend_from_slice(&(-3i64).to_le_bytes());
        out.extend_from_slice(&2.5f64.to_le_bytes());
        put_str(&mut out, "Fuge");
        put_len(&mut out, 1);
        out.push(9);
        let mut r = Reader::new(&out);
        assert_eq!((r.u8(), r.bool(), r.u16()), (Ok(7), Ok(true), Ok(513)));
        assert_eq!((r.i64(), r.f64()), (Ok(-3), Ok(2.5)));
        assert_eq!(r.string().as_deref(), Ok("Fuge"));
        assert_eq!((r.len(1), r.u8()), (Ok(1), Ok(9)));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.u8(), Err(Error::Truncated));
    }

    #[test]
    fn hostile_input_is_refused_typed() {
        // A 4 GiB string length inside an 8-byte buffer must not allocate.
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 4]);
        assert_eq!(Reader::new(&buf).string(), Err(Error::Truncated));
        // Nor may a count that 4 bytes cannot back.
        buf[..4].copy_from_slice(&5u32.to_le_bytes());
        assert_eq!(Reader::new(&buf).len(1), Err(Error::Truncated));
        assert_eq!(Reader::new(&buf).len(0), Err(Error::Truncated));
        assert_eq!(
            Reader::new(&[2]).bool(),
            Err(Error::Invalid("bool byte", 2))
        );
        let not_utf8 = [1, 0, 0, 0, 0xff];
        assert_eq!(Reader::new(&not_utf8).string(), Err(Error::BadUtf8));
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(Error::Trailing(2)));
    }
}
