//! Low-level wire encoding helpers.
//!
//! Mote radios move every byte at 250 kbps and every byte costs energy, so
//! the codec is a compact hand-rolled little-endian format rather than a
//! general-purpose serializer. Timestamps travel as 48-bit jiffy counts
//! (enough for 272 years), durations as 32-bit jiffy counts (36 hours);
//! longer ones saturate.

use enviromic_types::{SimDuration, SimTime};
use std::cell::Cell;

/// Error produced when decoding runs past the end of a packet or meets an
/// invalid tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset at which decoding failed.
    pub at: usize,
    /// Human-readable description of what was expected.
    pub expected: &'static str,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "wire decode failed at byte {}: expected {}",
            self.at, self.expected
        )
    }
}

impl std::error::Error for WireError {}

/// An append-only packet writer over its thread's reused scratch buffer.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

thread_local! {
    /// The buffer every [`Writer::with_scratch`] on this thread writes
    /// into. It keeps the capacity of the largest packet encoded so far,
    /// so encoding allocates nothing once the thread has warmed up.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

impl Writer {
    /// Runs `f` with an empty writer over this thread's scratch buffer.
    ///
    /// A nested call finds the buffer taken and writes into a fresh one
    /// instead, which is correct but allocates.
    pub fn with_scratch<R>(f: impl FnOnce(&mut Writer) -> R) -> R {
        let mut w = Writer {
            buf: SCRATCH.take(),
        };
        w.buf.clear();
        let result = f(&mut w);
        SCRATCH.set(w.buf);
        result
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Overwrites the already written byte at `at`, for a count that is
    /// known only once what it counts has been written.
    ///
    /// # Panics
    ///
    /// Panics when `at` is not below [`Writer::len`].
    pub fn set_u8(&mut self, at: usize, v: u8) {
        self.buf[at] = v;
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends the low 48 bits of `v`, little-endian.
    pub fn u48(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes()[..6]);
    }

    /// Appends a timestamp as 48-bit jiffies (saturating).
    pub fn time(&mut self, t: SimTime) {
        self.u48(t.as_jiffies().min((1 << 48) - 1));
    }

    /// Appends a duration as 32-bit jiffies (saturating).
    pub fn duration(&mut self, d: SimDuration) {
        self.u32(u32::try_from(d.as_jiffies()).unwrap_or(u32::MAX));
    }

    /// Appends a length-prefixed byte string (`u8` length).
    ///
    /// # Panics
    ///
    /// Panics when `bytes` exceeds 255 bytes.
    pub fn bytes8(&mut self, bytes: &[u8]) {
        let len = u8::try_from(bytes.len()).expect("bytes8 payload over 255 bytes");
        self.u8(len);
        self.buf.extend_from_slice(bytes);
    }
}

/// A cursor-based packet reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor position.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError {
                at: self.pos,
                expected,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError`] at end of input.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError`] at end of input.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a 48-bit little-endian value.
    ///
    /// # Errors
    ///
    /// [`WireError`] at end of input.
    pub fn u48(&mut self) -> Result<u64, WireError> {
        let s = self.take(6, "u48")?;
        let mut b = [0u8; 8];
        b[..6].copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a 48-bit timestamp.
    ///
    /// # Errors
    ///
    /// [`WireError`] at end of input.
    pub fn time(&mut self) -> Result<SimTime, WireError> {
        Ok(SimTime::from_jiffies(self.u48()?))
    }

    /// Reads a 32-bit duration.
    ///
    /// # Errors
    ///
    /// [`WireError`] at end of input.
    pub fn duration(&mut self) -> Result<SimDuration, WireError> {
        Ok(SimDuration::from_jiffies(u64::from(self.u32()?)))
    }

    /// Reads a `u8`-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`WireError`] at end of input.
    pub fn bytes8(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u8()? as usize;
        self.take(len, "bytes8 payload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes `write` appends to an empty writer.
    fn written(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        Writer::with_scratch(|w| {
            write(w);
            w.as_bytes().to_vec()
        })
    }

    #[test]
    fn scalar_round_trips() {
        let bytes = written(|w| {
            w.u8(0xAB);
            w.u16(0x1234);
            w.u32(0xDEAD_BEEF);
            w.u48((1 << 48) - 2);
        });
        assert_eq!(bytes.len(), 1 + 2 + 4 + 6);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u48().unwrap(), (1 << 48) - 2);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn time_and_duration_round_trip() {
        let t = SimTime::from_jiffies(987_654_321);
        let d = SimDuration::from_millis(1500);
        let bytes = written(|w| {
            w.time(t);
            w.duration(d);
        });
        let mut r = Reader::new(&bytes);
        assert_eq!(r.time().unwrap(), t);
        assert_eq!(r.duration().unwrap(), d);
    }

    #[test]
    fn oversized_duration_saturates() {
        let bytes = written(|w| w.duration(SimDuration::from_jiffies(u64::MAX)));
        let mut r = Reader::new(&bytes);
        assert_eq!(r.duration().unwrap().as_jiffies(), u64::from(u32::MAX));
    }

    #[test]
    fn oversized_time_saturates() {
        for jiffies in [1 << 48, u64::MAX] {
            let bytes = written(|w| w.time(SimTime::from_jiffies(jiffies)));
            let mut r = Reader::new(&bytes);
            assert_eq!(r.time().unwrap().as_jiffies(), (1 << 48) - 1, "{jiffies}");
        }
    }

    #[test]
    fn bytes8_round_trips() {
        let bytes = written(|w| {
            w.bytes8(&[1, 2, 3]);
            w.bytes8(&[]);
        });
        let mut r = Reader::new(&bytes);
        assert_eq!(r.bytes8().unwrap(), &[1, 2, 3]);
        assert_eq!(r.bytes8().unwrap(), &[] as &[u8]);
    }

    #[test]
    fn scratch_starts_empty_and_nests() {
        let outer = written(|w| {
            w.u8(1);
            let inner = written(|inner| inner.u16(0x0302));
            assert_eq!(inner, [2, 3], "a nested writer starts empty");
            w.u8(4);
            w.set_u8(0, 0);
        });
        assert_eq!(outer, [0, 4]);
        assert_eq!(written(|w| w.u8(5)), [5], "a later writer starts empty");
    }

    #[test]
    fn truncated_input_errors_with_position() {
        let mut r = Reader::new(&[0x01]);
        assert_eq!(r.u8().unwrap(), 1);
        let err = r.u32().unwrap_err();
        assert_eq!(err.at, 1);
        assert!(err.to_string().contains("u32"));
    }

    #[test]
    fn truncated_bytes8_errors() {
        // Declared length 5 but only 2 bytes follow.
        let mut r = Reader::new(&[5, 1, 2]);
        assert!(r.bytes8().is_err());
    }
}
