//! Minimal byte-buffer traits for the wire codec: big-endian reads over
//! `&[u8]` ([`Buf`]) and writes into `Vec<u8>` ([`BufMut`]).
//!
//! All multi-byte integers are big-endian (network order), matching the
//! OpenFlow convention the southbound codec follows.

/// A readable byte cursor. Implemented for `&[u8]`; reading advances the
/// slice in place.
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// Panics on an empty buffer (codecs bounds-check first).
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 bytes remain.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4 bytes remain.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 bytes remain.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// A growable byte sink.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        buf.put_u8(0xab);
        buf.put_u16(0x1234);
        buf.put_u32(0xdead_beef);
        buf.put_u64(0x0102_0304_0506_0708);
        buf.put_slice(b"xyz");
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 3);

        let mut rd: &[u8] = &buf;
        assert_eq!(rd.get_u8(), 0xab);
        assert_eq!(rd.get_u16(), 0x1234);
        assert_eq!(rd.get_u32(), 0xdead_beef);
        assert_eq!(rd.get_u64(), 0x0102_0304_0506_0708);
        assert_eq!(rd.chunk(), b"xyz");
        rd.advance(3);
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn integers_are_big_endian() {
        let mut buf: Vec<u8> = Vec::new();
        buf.put_u32(1);
        assert_eq!(buf, [0, 0, 0, 1]);
    }

    #[test]
    fn vec_is_also_a_sink() {
        let mut v: Vec<u8> = Vec::new();
        v.put_u16(0x0102);
        assert_eq!(v, vec![1, 2]);
    }
}
