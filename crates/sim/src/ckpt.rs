//! Hand-rolled checkpoint codec: a versioned, compact binary format
//! for deterministic snapshot/restore of simulation state.
//!
//! The workspace has no external dependencies, so instead of serde each
//! stateful type implements [`Ckpt`]: `save` appends its mutable state
//! to a [`Saver`], and `load` overwrites the state of an *already
//! constructed* object from a [`Loader`]. Loading into a prebuilt
//! object is the key design choice — configuration-derived geometry
//! (core counts, TLB shapes, cache ways, policy kinds) is never
//! serialized; the restorer rebuilds the machine from the same
//! configuration and the checkpoint only carries what a run mutates. A
//! fingerprint of the configuration travels in the header so a
//! checkpoint can refuse to load into a differently-shaped machine.
//!
//! Encoding: unsigned integers are LEB128 varints (checkpoints are
//! dominated by small counters and cycle deltas), `f64` is 8 raw
//! little-endian bytes of its bit pattern, and containers are a varint
//! length followed by elements. The format is versioned through
//! [`Saver::header`] / [`Loader::header`]; any layout change must bump
//! the writer's version, and readers reject versions they don't know
//! (see DESIGN.md "Checkpoint format").

use std::collections::VecDeque;
use std::fmt;

/// Why a checkpoint failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The buffer ended mid-value.
    Truncated,
    /// The leading magic bytes did not match.
    BadMagic,
    /// The format version is not one this reader understands.
    BadVersion(u32),
    /// The configuration fingerprint in the header does not match the
    /// machine being restored into.
    ConfigMismatch {
        /// Fingerprint the restoring machine computed.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// A value was structurally invalid for the object being loaded.
    Corrupt(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CkptError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CkptError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different configuration \
                 (fingerprint {found:#018x}, machine has {expected:#018x})"
            ),
            CkptError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Serializes state into a byte buffer.
#[derive(Debug, Default)]
pub struct Saver {
    buf: Vec<u8>,
}

impl Saver {
    /// An empty saver.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes the file header: magic, format version, and the
    /// configuration fingerprint [`Loader::header`] will verify.
    pub fn header(&mut self, magic: &[u8; 4], version: u32, fingerprint: u64) {
        self.buf.extend_from_slice(magic);
        self.u32(version);
        self.u64(fingerprint);
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
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

    /// LEB128 varint.
    pub fn u16(&mut self, v: u16) {
        self.u64(v as u64);
    }

    /// LEB128 varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// LEB128 varint (usize travels as u64).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Two varints (low, high 64 bits).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// One byte, 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// The bit pattern, 8 raw little-endian bytes.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Varint length + raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Varint length + UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Deserializes state from a byte buffer.
#[derive(Debug)]
pub struct Loader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Loader<'a> {
    /// A loader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads and verifies the file header written by [`Saver::header`],
    /// returning the stored configuration fingerprint.
    pub fn header(&mut self, magic: &[u8; 4], version: u32) -> Result<u64, CkptError> {
        let mut found = [0u8; 4];
        for b in &mut found {
            *b = self.u8()?;
        }
        if &found != magic {
            return Err(CkptError::BadMagic);
        }
        let v = self.u32()?;
        if v != version {
            return Err(CkptError::BadVersion(v));
        }
        self.u64()
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        let b = *self.buf.get(self.pos).ok_or(CkptError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(CkptError::Corrupt("varint overflows u64"));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// LEB128 varint, range-checked.
    pub fn u16(&mut self) -> Result<u16, CkptError> {
        u16::try_from(self.u64()?).map_err(|_| CkptError::Corrupt("u16 out of range"))
    }

    /// LEB128 varint, range-checked.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        u32::try_from(self.u64()?).map_err(|_| CkptError::Corrupt("u32 out of range"))
    }

    /// LEB128 varint, range-checked.
    pub fn usize(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.u64()?).map_err(|_| CkptError::Corrupt("usize out of range"))
    }

    /// Two varints (low, high 64 bits).
    pub fn u128(&mut self) -> Result<u128, CkptError> {
        let lo = self.u64()? as u128;
        let hi = self.u64()? as u128;
        Ok(lo | (hi << 64))
    }

    /// One byte, 0 or 1.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Corrupt("bool must be 0 or 1")),
        }
    }

    /// 8 raw little-endian bytes, reinterpreted.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        let end = self.pos + 8;
        let bytes = self.buf.get(self.pos..end).ok_or(CkptError::Truncated)?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("8-byte slice"),
        )))
    }

    /// Varint length + raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let len = self.usize()?;
        let end = self.pos.checked_add(len).ok_or(CkptError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CkptError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Varint length + UTF-8 bytes.
    pub fn str(&mut self) -> Result<&'a str, CkptError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CkptError::Corrupt("invalid UTF-8"))
    }
}

/// State that can be checkpointed: `save` appends the mutable state,
/// `load` overwrites it on an already-constructed object. Geometry and
/// configuration are never serialized — `load` assumes `self` was built
/// from the same configuration the saved object was (enforced by the
/// fingerprint in the checkpoint header).
pub trait Ckpt {
    /// Appends this object's mutable state.
    fn save(&self, w: &mut Saver);
    /// Overwrites this object's mutable state from the stream.
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError>;
}

macro_rules! ckpt_prim {
    ($t:ty, $put:ident, $get:ident) => {
        impl Ckpt for $t {
            fn save(&self, w: &mut Saver) {
                w.$put(*self);
            }
            fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
                *self = r.$get()?;
                Ok(())
            }
        }
    };
}

ckpt_prim!(u8, u8, u8);
ckpt_prim!(u16, u16, u16);
ckpt_prim!(u32, u32, u32);
ckpt_prim!(u64, u64, u64);
ckpt_prim!(u128, u128, u128);
ckpt_prim!(usize, usize, usize);
ckpt_prim!(bool, bool, bool);
ckpt_prim!(f64, f64, f64);

impl<T: Ckpt, const N: usize> Ckpt for [T; N] {
    fn save(&self, w: &mut Saver) {
        self.iter().for_each(|item| item.save(w));
    }

    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.iter_mut().try_for_each(|item| item.load(r))
    }
}

impl<T: Ckpt + Default> Ckpt for Vec<T> {
    fn save(&self, w: &mut Saver) {
        w.usize(self.len());
        for item in self {
            item.save(w);
        }
    }

    /// Grows as items decode, so a corrupt length fails as
    /// [`CkptError::Truncated`] instead of allocating it up front.
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        let len = r.usize()?;
        self.clear();
        for _ in 0..len {
            let mut item = T::default();
            item.load(r)?;
            self.push(item);
        }
        Ok(())
    }
}

impl<T: Ckpt + Default> Ckpt for VecDeque<T> {
    fn save(&self, w: &mut Saver) {
        w.usize(self.len());
        for item in self {
            item.save(w);
        }
    }

    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        let len = r.usize()?;
        self.clear();
        for _ in 0..len {
            let mut item = T::default();
            item.load(r)?;
            self.push_back(item);
        }
        Ok(())
    }
}

impl<T: Ckpt + Default> Ckpt for Option<T> {
    fn save(&self, w: &mut Saver) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        if r.bool()? {
            let mut v = T::default();
            v.load(r)?;
            *self = Some(v);
        } else {
            *self = None;
        }
        Ok(())
    }
}

impl<A: Ckpt, B: Ckpt> Ckpt for (A, B) {
    fn save(&self, w: &mut Saver) {
        self.0.save(w);
        self.1.save(w);
    }

    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.0.load(r)?;
        self.1.load(r)
    }
}

/// FNV-1a over `bytes` — the configuration fingerprint hash. Stable
/// across platforms and toolchains (unlike `DefaultHasher`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Saver::new();
        w.u8(0xab);
        w.u16(40_000);
        w.u32(3_000_000_000);
        w.u64(u64::MAX);
        w.u128(u128::MAX - 7);
        w.usize(12345);
        w.bool(true);
        w.f64(-1.5e300);
        w.str("hello");
        let bytes = w.into_bytes();
        let mut r = Loader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 40_000);
        assert_eq!(r.u32().unwrap(), 3_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 7);
        assert_eq!(r.usize().unwrap(), 12345);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), -1.5e300);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Saver::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Loader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(r.u64(), Err(CkptError::Truncated));
        let mut r = Loader::new(&[]);
        assert_eq!(r.f64(), Err(CkptError::Truncated));
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let mut w = Saver::new();
        w.header(b"GMCK", 1, 0xfeed);
        let bytes = w.into_bytes();
        let mut r = Loader::new(&bytes);
        assert_eq!(r.header(b"GMCK", 1).unwrap(), 0xfeed);
        let mut r = Loader::new(&bytes);
        assert_eq!(r.header(b"XXXX", 1), Err(CkptError::BadMagic));
        let mut r = Loader::new(&bytes);
        assert_eq!(r.header(b"GMCK", 2), Err(CkptError::BadVersion(1)));
    }

    #[test]
    fn containers_round_trip_into_prebuilt_objects() {
        let v: Vec<u64> = vec![0, 1, u64::MAX, 42];
        let dq: VecDeque<u32> = [7u32, 8, 9].into_iter().collect();
        let opt: Option<u64> = Some(99);
        let pair: (u64, bool) = (5, true);
        let mut w = Saver::new();
        v.save(&mut w);
        dq.save(&mut w);
        opt.save(&mut w);
        None::<u64>.save(&mut w);
        pair.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Loader::new(&bytes);
        let mut v2: Vec<u64> = vec![123; 17];
        let mut dq2: VecDeque<u32> = VecDeque::new();
        let mut opt2: Option<u64> = None;
        let mut opt3: Option<u64> = Some(1);
        let mut pair2: (u64, bool) = (0, false);
        v2.load(&mut r).unwrap();
        dq2.load(&mut r).unwrap();
        opt2.load(&mut r).unwrap();
        opt3.load(&mut r).unwrap();
        pair2.load(&mut r).unwrap();
        assert_eq!(v2, v);
        assert_eq!(dq2, dq);
        assert_eq!(opt2, opt);
        assert_eq!(opt3, None);
        assert_eq!(pair2, pair);
    }

    #[test]
    fn varints_are_compact_for_small_values() {
        let mut w = Saver::new();
        for v in 0..128u64 {
            w.u64(v);
        }
        assert_eq!(w.len(), 128, "one byte per small value");
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"config-a"), fnv1a64(b"config-b"));
    }
}
