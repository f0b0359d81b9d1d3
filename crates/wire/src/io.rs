//! Low-level byte IO: LEB128 varints, zigzag integers, strings.

use crate::{Result, WireError};

/// Append-only byte sink used by the serializer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates a writer that reuses `buf`'s allocation (the buffer is
    /// cleared first). Pooled encoders pass recycled payload buffers
    /// here so steady-state encoding does not allocate.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        ByteWriter { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the payload. This is a move of the
    /// backing storage, not a copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes raw bytes.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a signed integer with zigzag + varint encoding.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes an `f64` as fixed 8 bytes, little-endian IEEE bits.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Cursor over a received payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf` with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if the cursor has consumed the whole payload.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEof`] at end of payload.
    pub fn get_u8(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::UnexpectedEof { offset: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEof`] or [`WireError::VarintOverflow`].
    pub fn get_varint(&mut self) -> Result<u64> {
        let start = self.pos;
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(WireError::VarintOverflow { offset: start });
            }
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads a varint that must fit an index/position field (`u32` on
    /// the wire). A wider value is a malformed frame: truncating it with
    /// `as u32` could alias a *valid* index and silently corrupt the
    /// decode, so it is rejected as an overflow instead.
    ///
    /// # Errors
    /// [`WireError::VarintOverflow`] for values above `u32::MAX`; varint
    /// errors as [`ByteReader::get_varint`].
    pub fn get_varint_u32(&mut self) -> Result<u32> {
        let offset = self.pos;
        u32::try_from(self.get_varint()?).map_err(|_| WireError::VarintOverflow { offset })
    }

    /// Reads a count (varint) that prefixes a sequence of items each at
    /// least one byte long. Rejects counts exceeding the remaining
    /// payload, which bounds attacker-controlled pre-allocation.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEof`] if the count exceeds the remaining
    /// bytes; varint errors as [`ByteReader::get_varint`].
    pub fn get_count(&mut self) -> Result<usize> {
        let offset = self.pos;
        let count = self.get_varint()? as usize;
        if count > self.remaining() {
            return Err(WireError::UnexpectedEof { offset });
        }
        Ok(count)
    }

    /// Reads a zigzag-encoded signed integer.
    ///
    /// # Errors
    /// As [`ByteReader::get_varint`].
    pub fn get_zigzag(&mut self) -> Result<i64> {
        let v = self.get_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads an IEEE `f64`.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEof`].
    pub fn get_f64(&mut self) -> Result<f64> {
        let s = self.get_slice(8)?;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(s);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEof`] or [`WireError::InvalidUtf8`].
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_varint()? as usize;
        let offset = self.pos;
        let s = self.get_slice(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::InvalidUtf8 { offset })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn zigzag_roundtrip() {
        let values = [
            0i64,
            -1,
            1,
            -2,
            i32::MIN as i64,
            i32::MAX as i64,
            i64::MIN,
            i64::MAX,
        ];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_zigzag().unwrap(), v);
        }
    }

    #[test]
    fn small_varints_are_one_byte() {
        let mut w = ByteWriter::new();
        w.put_varint(5);
        assert_eq!(w.len(), 1);
        let mut w = ByteWriter::new();
        w.put_zigzag(-1);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn f64_and_str_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_f64(3.25);
        w.put_f64(f64::NAN);
        w.put_str("héllo");
        w.put_str("");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_f64().unwrap(), 3.25);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_str().unwrap(), "");
    }

    #[test]
    fn eof_detection() {
        let mut r = ByteReader::new(&[]);
        assert!(matches!(r.get_u8(), Err(WireError::UnexpectedEof { .. })));
        let mut r = ByteReader::new(&[0x80, 0x80]);
        assert!(matches!(
            r.get_varint(),
            Err(WireError::UnexpectedEof { .. })
        ));
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(r.get_f64(), Err(WireError::UnexpectedEof { .. })));
    }

    #[test]
    fn varint_overflow_detection() {
        // 11 continuation bytes exceed 64 bits.
        let bytes = [0xffu8; 11];
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_varint(),
            Err(WireError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn varint_u32_narrowing() {
        let mut w = ByteWriter::new();
        w.put_varint(u64::from(u32::MAX));
        w.put_varint(u64::from(u32::MAX) + 1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_varint_u32().unwrap(), u32::MAX);
        // One past u32::MAX is a well-formed varint but not a legal
        // index; it must be rejected, not truncated.
        assert!(matches!(
            r.get_varint_u32(),
            Err(WireError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn invalid_utf8_detection() {
        let mut w = ByteWriter::new();
        w.put_varint(2);
        w.put_slice(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(WireError::InvalidUtf8 { .. })));
    }

    #[test]
    fn position_tracking() {
        let mut w = ByteWriter::new();
        assert!(w.is_empty());
        w.put_u8(1);
        w.put_slice(&[2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.position(), 0);
        r.get_u8().unwrap();
        assert_eq!(r.position(), 1);
        assert_eq!(r.remaining(), 2);
    }
}
