//! The store's binary wire format.
//!
//! Every store file is `header ‖ payload`:
//!
//! ```text
//! magic            8 bytes   b"DISESTOR"
//! format_version   u32 LE    FORMAT_VERSION
//! payload_len      u64 LE    exact payload byte count
//! payload_fnv1a    u64 LE    FNV-1a 64 over the payload bytes
//! payload          ...       field stream (see dise-store's entry codec)
//! ```
//!
//! The header is verified *before* any payload byte is interpreted, so a
//! truncated, version-skewed, or bit-flipped file is rejected as a typed
//! [`StoreError`] and the caller falls back to a cold run. All integers
//! are little-endian; strings are length-prefixed UTF-8; `Option`s are a
//! one-byte tag followed by the value.

use crate::error::StoreError;

/// The on-disk magic.
pub const MAGIC: [u8; 8] = *b"DISESTOR";

/// Current format version. Bump on any payload layout change — old
/// readers reject new files (and vice versa) instead of misparsing them.
pub const FORMAT_VERSION: u32 = 4;

/// Header length in bytes (magic + version + length + checksum).
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// FNV-1a 64-bit over `bytes` — the payload integrity checksum. Stable
/// across processes and platforms (unlike `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Frames `payload` with the integrity header.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies the header of `bytes` and returns the payload slice.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], StoreError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= 8 && bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        return Err(StoreError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if (payload.len() as u64) < len {
        return Err(StoreError::Truncated);
    }
    if (payload.len() as u64) > len {
        return Err(StoreError::Corrupt("trailing bytes after payload"));
    }
    if fnv1a(payload) != checksum {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Append-only payload encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    pub fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.i64(v);
            }
        }
    }
}

/// Cursor-based payload decoder; every read is bounds-checked and
/// answers [`StoreError::Truncated`] past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Returns `true` once every byte was consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or(StoreError::Truncated)?;
        if end > self.buf.len() {
            return Err(StoreError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StoreError::Corrupt("boolean tag")),
        }
    }

    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Corrupt("non-UTF-8 string"))
    }

    pub fn opt_i64(&mut self) -> Result<Option<i64>, StoreError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            _ => Err(StoreError::Corrupt("option tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.str("hello");
        w.opt_i64(None);
        w.opt_i64(Some(i64::MIN));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.opt_i64().unwrap(), None);
        assert_eq!(r.opt_i64().unwrap(), Some(i64::MIN));
        assert!(r.is_at_end());
    }

    #[test]
    fn reads_past_the_end_are_truncation_errors() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(StoreError::Truncated)));
        // A huge string length cannot wrap into a bogus read.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(), Err(StoreError::Truncated)));
    }

    #[test]
    fn frame_roundtrips_and_header_is_verified() {
        let payload = b"some payload bytes".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), payload.as_slice());

        // Bad magic.
        let mut bad = framed.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(unframe(&bad), Err(StoreError::BadMagic)));

        // Future format version.
        let mut future = framed.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            unframe(&future),
            Err(StoreError::UnsupportedVersion(99))
        ));

        // Truncated payload.
        let truncated = &framed[..framed.len() - 3];
        assert!(matches!(unframe(truncated), Err(StoreError::Truncated)));

        // Header-only truncation.
        assert!(matches!(unframe(&framed[..10]), Err(StoreError::Truncated)));

        // Flipped payload bit.
        let mut flipped = framed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            unframe(&flipped),
            Err(StoreError::ChecksumMismatch)
        ));

        // Trailing garbage.
        let mut trailing = framed;
        trailing.push(0);
        assert!(matches!(unframe(&trailing), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned reference values: the checksum is part of the on-disk
        // contract, so it must never drift between builds.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
