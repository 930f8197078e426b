//! Deterministic canonical encoding for signed content.
//!
//! A signature is only meaningful if every party serialises the signed
//! structure to exactly the same bytes. General-purpose serialisation
//! formats do not promise that, so the "signed parts" of every protocol
//! message implement [`CanonicalEncode`]: a tiny, explicitly-specified
//! big-endian, length-prefixed encoding.
//!
//! The same encoding is the middleware's *only* binary format: wire frames,
//! replica checkpoints and evidence-log records are all written with
//! [`Encoder`] and read back with [`Decoder`], its exact inverse. The
//! decoder is strict — `bool`/`Option` tags other than 0/1, invalid UTF-8,
//! a length prefix that overruns the buffer and trailing bytes are all
//! errors — so for every input it accepts, re-encoding the decoded value
//! reproduces the input byte for byte. That is what lets a receiver verify
//! a signature over the very slice it received ("sign what you send").
//!
//! # Example
//!
//! ```
//! use b2b_crypto::{CanonicalEncode, Encoder};
//!
//! struct Pair { a: u64, b: String }
//! impl CanonicalEncode for Pair {
//!     fn encode(&self, enc: &mut Encoder) {
//!         self.a.encode(enc);
//!         self.b.encode(enc);
//!     }
//! }
//!
//! let p = Pair { a: 7, b: "x".into() };
//! assert_eq!(p.canonical_bytes(), Pair { a: 7, b: "x".into() }.canonical_bytes());
//! ```

use crate::hash::{sha256, Digest32};
use crate::identity::PartyId;
use crate::time::TimeMs;
use std::fmt;

/// An append-only byte buffer with deterministic primitive encoders.
///
/// All integers are big-endian; all variable-length data is prefixed with a
/// `u64` byte count; `Option` is a presence byte followed by the value;
/// sequences are a `u64` element count followed by the elements.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Creates an empty encoder whose buffer can hold `capacity` bytes
    /// before reallocating. Signing paths that know the rough size of a
    /// message use this to avoid the doubling-growth copies of an empty
    /// `Vec`.
    pub fn with_capacity(capacity: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the encoder, returning the encoded bytes.
    ///
    /// This moves the buffer out without reallocating or trimming; callers
    /// that need a tight allocation can `shrink_to_fit` themselves.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends variable-length bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.reserve(8 + v.len());
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a fixed 32-byte digest with no length prefix.
    pub fn put_digest(&mut self, d: &Digest32) {
        self.buf.extend_from_slice(d.as_bytes());
    }

    /// Appends bytes verbatim, with no length prefix: fixed-width fields
    /// and already-canonical encodings of nested values.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Returns the number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Why a byte string is not a canonical encoding of the expected type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// What was wrong.
    pub what: &'static str,
    /// Byte offset at which decoding stopped.
    pub offset: usize,
}

impl DecodeError {
    /// The error for a field that started at byte `offset`.
    pub fn at<T>(what: &'static str, offset: usize) -> Result<T, DecodeError> {
        Err(DecodeError { what, offset })
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over canonical bytes: the exact inverse of [`Encoder`].
///
/// Every read is bounds-checked and no allocation is ever sized from a
/// length prefix that has not first been checked against the bytes that
/// actually remain, so arbitrary input yields `Err`, never a panic or an
/// oversized allocation.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// The current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes consumed since offset `start` — the exact slice a nested
    /// value was decoded from.
    pub fn consumed_since(&self, start: usize) -> &'a [u8] {
        &self.buf[start..self.pos]
    }

    /// Takes the next `n` bytes verbatim.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return DecodeError::at("truncated", self.pos);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.get_array()?))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.get_array()?))
    }

    /// Reads a boolean; any byte other than 0 or 1 is an error.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        let at = self.pos;
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => DecodeError::at("tag is neither 0 nor 1", at),
        }
    }

    /// Reads `N` raw bytes with no length prefix.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads `u64`-length-prefixed bytes, borrowing them from the input.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let at = self.pos;
        match usize::try_from(self.get_u64()?) {
            Ok(len) if len <= self.remaining() => self.take(len),
            _ => DecodeError::at("length prefix overruns the buffer", at),
        }
    }

    /// Reads a `u64`-length-prefixed UTF-8 string, borrowing it.
    pub fn get_str(&mut self) -> Result<&'a str, DecodeError> {
        let at = self.pos;
        std::str::from_utf8(self.get_bytes()?).or(DecodeError::at("string is not UTF-8", at))
    }

    /// Reads a fixed 32-byte digest.
    pub fn get_digest(&mut self) -> Result<Digest32, DecodeError> {
        Ok(Digest32(self.get_array()?))
    }

    /// Reads a sequence's `u64` element count, rejecting counts that could
    /// not fit in the remaining bytes at `min_element_bytes` (≥ 1) each —
    /// so `Vec::with_capacity(count)` is always bounded by the input size.
    pub fn get_count(&mut self, min_element_bytes: usize) -> Result<usize, DecodeError> {
        let at = self.pos;
        match usize::try_from(self.get_u64()?) {
            Ok(count) if count <= self.remaining() / min_element_bytes.max(1) => Ok(count),
            _ => DecodeError::at("element count overruns the buffer", at),
        }
    }

    /// Succeeds only if every byte has been consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            DecodeError::at("trailing bytes", self.pos)
        }
    }
}

/// Types that have a single, deterministic byte representation for signing.
pub trait CanonicalEncode {
    /// Appends this value's canonical encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// A rough upper bound on the encoded size, used to pre-size buffers.
    /// The default suits small fixed-shape protocol parts; types with
    /// variable payloads can override it.
    fn encoded_size_hint(&self) -> usize {
        128
    }

    /// Returns this value's canonical encoding as a fresh byte vector.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(self.encoded_size_hint());
        self.encode(&mut enc);
        enc.finish()
    }

    /// Returns the SHA-256 digest of the canonical encoding.
    fn canonical_digest(&self) -> Digest32 {
        sha256(&self.canonical_bytes())
    }
}

impl CanonicalEncode for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
}

impl CanonicalEncode for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
}

impl CanonicalEncode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
}

impl CanonicalEncode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
}

impl CanonicalEncode for str {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
}

impl CanonicalEncode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
}

impl CanonicalEncode for [u8] {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
}

impl CanonicalEncode for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
}

impl CanonicalEncode for Digest32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(self);
    }
}

impl CanonicalEncode for PartyId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self.as_str());
    }
}

impl CanonicalEncode for TimeMs {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.as_millis());
    }
}

impl<T: CanonicalEncode> CanonicalEncode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
}

impl<T: CanonicalEncode + ?Sized> CanonicalEncode for &T {
    fn encode(&self, enc: &mut Encoder) {
        (**self).encode(enc);
    }
}

/// Encodes a slice of non-byte elements (element count + elements).
///
/// `Vec<u8>` intentionally encodes as raw bytes, so sequences of structured
/// values use this helper instead of a conflicting `Vec<T>` impl.
pub fn encode_seq<T: CanonicalEncode>(items: &[T], enc: &mut Encoder) {
    enc.put_u64(items.len() as u64);
    for item in items {
        item.encode(enc);
    }
}

/// Types that can be read back from their [`CanonicalEncode`] bytes.
///
/// Implementations must be the exact inverse of `encode` and reject every
/// byte string `encode` cannot produce, so that `decode` followed by
/// `encode` is the identity on accepted input.
pub trait CanonicalDecode: Sized {
    /// Reads one value from `dec`, leaving the cursor after it.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Decodes a value that must span `bytes` exactly (no trailing bytes).
    fn from_canonical(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let value = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }
}

impl CanonicalDecode for u8 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u8()
    }
}

impl CanonicalDecode for u32 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u32()
    }
}

impl CanonicalDecode for u64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u64()
    }
}

impl CanonicalDecode for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_bool()
    }
}

impl CanonicalDecode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_str().map(str::to_owned)
    }
}

impl CanonicalDecode for Vec<u8> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_bytes().map(<[u8]>::to_vec)
    }
}

impl CanonicalDecode for Digest32 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_digest()
    }
}

impl CanonicalDecode for PartyId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_str().map(PartyId::new)
    }
}

impl CanonicalDecode for TimeMs {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u64().map(TimeMs)
    }
}

impl<T: CanonicalDecode> CanonicalDecode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(if dec.get_bool()? {
            Some(T::decode(dec)?)
        } else {
            None
        })
    }
}

/// Decodes a sequence written by [`encode_seq`]. `min_element_bytes` is the
/// smallest encoding one element can have (see [`Decoder::get_count`]).
pub fn decode_seq<T: CanonicalDecode>(
    dec: &mut Decoder<'_>,
    min_element_bytes: usize,
) -> Result<Vec<T>, DecodeError> {
    let count = dec.get_count(min_element_bytes)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(T::decode(dec)?);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_deterministic() {
        let mut a = Encoder::new();
        7u64.encode(&mut a);
        "hi".encode(&mut a);
        true.encode(&mut a);
        let mut b = Encoder::new();
        7u64.encode(&mut b);
        "hi".encode(&mut b);
        true.encode(&mut b);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_ambiguity() {
        // ("ab","c") must differ from ("a","bc")
        let mut a = Encoder::new();
        "ab".encode(&mut a);
        "c".encode(&mut a);
        let mut b = Encoder::new();
        "a".encode(&mut b);
        "bc".encode(&mut b);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn option_encoding_distinguishes_none_some() {
        let none: Option<u64> = None;
        let some: Option<u64> = Some(0);
        assert_ne!(none.canonical_bytes(), some.canonical_bytes());
    }

    #[test]
    fn seq_encoding_includes_count() {
        let mut a = Encoder::new();
        encode_seq(&[1u64, 2u64], &mut a);
        let bytes = a.finish();
        assert_eq!(&bytes[..8], &2u64.to_be_bytes());
        assert_eq!(bytes.len(), 8 + 16);
    }

    #[test]
    fn digest_is_fixed_width() {
        let d = sha256(b"x");
        assert_eq!(d.canonical_bytes().len(), 32);
    }

    #[test]
    fn canonical_digest_matches_manual_hash() {
        let v = 42u64;
        assert_eq!(v.canonical_digest(), sha256(&42u64.to_be_bytes()));
    }

    #[test]
    fn empty_encoder_reports_empty() {
        let enc = Encoder::new();
        assert!(enc.is_empty());
        assert_eq!(enc.len(), 0);
    }

    /// Every encoder primitive, in one value, for the inverse tests.
    fn sample() -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX - 1);
        enc.put_bool(true);
        enc.put_bytes(&[1, 2, 3]);
        enc.put_str("héllo");
        enc.put_digest(&sha256(b"d"));
        enc.put_raw(&[9; 4]);
        Some(5u64).encode(&mut enc);
        None::<u64>.encode(&mut enc);
        encode_seq(&[PartyId::new("a"), PartyId::new("bc")], &mut enc);
        TimeMs(99).encode(&mut enc);
        enc.finish()
    }

    fn decode_sample(bytes: &[u8]) -> Result<(), DecodeError> {
        let mut dec = Decoder::new(bytes);
        assert_eq!(dec.get_u8()?, 7);
        assert_eq!(dec.get_u32()?, 0xdead_beef);
        assert_eq!(dec.get_u64()?, u64::MAX - 1);
        assert!(dec.get_bool()?);
        assert_eq!(dec.get_bytes()?, [1, 2, 3]);
        assert_eq!(dec.get_str()?, "héllo");
        assert_eq!(dec.get_digest()?, sha256(b"d"));
        assert_eq!(dec.get_array::<4>()?, [9; 4]);
        assert_eq!(Option::<u64>::decode(&mut dec)?, Some(5));
        assert_eq!(Option::<u64>::decode(&mut dec)?, None);
        assert_eq!(
            decode_seq::<PartyId>(&mut dec, 8)?,
            [PartyId::new("a"), PartyId::new("bc")]
        );
        assert_eq!(TimeMs::decode(&mut dec)?, TimeMs(99));
        dec.finish()
    }

    #[test]
    fn decoder_is_the_inverse_of_the_encoder() {
        let bytes = sample();
        decode_sample(&bytes).expect("round trip");
        // Every strict prefix is an error, and so is one byte too many.
        for cut in 0..bytes.len() {
            assert!(decode_sample(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = bytes;
        longer.push(0);
        assert_eq!(decode_sample(&longer).unwrap_err().what, "trailing bytes");
    }

    #[test]
    fn decoder_rejects_what_the_encoder_cannot_produce() {
        // bool and Option tags other than 0/1.
        assert!(bool::from_canonical(&[2]).is_err());
        assert!(Option::<u64>::from_canonical(&[2, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert_eq!(Option::<u64>::from_canonical(&[0]), Ok(None));
        // Invalid UTF-8.
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        assert!(String::from_canonical(&enc.finish()).is_err());
        // Trailing bytes after a complete value.
        assert!(u8::from_canonical(&[1, 2]).is_err());
        // A length prefix or element count larger than what remains is
        // refused before anything is allocated for it.
        let mut huge = u64::MAX.to_be_bytes().to_vec();
        huge.extend_from_slice(&[0; 16]);
        assert!(Vec::<u8>::from_canonical(&huge).is_err());
        assert!(decode_seq::<PartyId>(&mut Decoder::new(&huge), 8).is_err());
        let mut three = 3u64.to_be_bytes().to_vec();
        three.extend_from_slice(&[0; 16]); // room for two 8-byte elements
        assert!(decode_seq::<PartyId>(&mut Decoder::new(&three), 8).is_err());
    }

    #[test]
    fn decode_never_panics_and_accepted_input_is_canonical() {
        // A tiny xorshift keeps the crate free of a dev-dependency.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..10_000 {
            let len = (next() % 48) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if let Ok(v) = Option::<String>::from_canonical(&buf) {
                assert_eq!(v.canonical_bytes(), buf);
            }
            if let Ok(v) = Vec::<u8>::from_canonical(&buf) {
                assert_eq!(v.canonical_bytes(), buf);
            }
            let mut dec = Decoder::new(&buf);
            if let Ok(parties) = decode_seq::<PartyId>(&mut dec, 8) {
                let mut enc = Encoder::new();
                encode_seq(&parties, &mut enc);
                assert_eq!(enc.finish(), dec.consumed_since(0));
            }
        }
    }

    #[test]
    fn consumed_since_is_the_slice_a_value_was_read_from() {
        let mut enc = Encoder::new();
        enc.put_u8(1);
        "signed part".encode(&mut enc);
        enc.put_u8(2);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        dec.get_u8().unwrap();
        let start = dec.position();
        let s = String::decode(&mut dec).unwrap();
        assert_eq!(dec.consumed_since(start), s.canonical_bytes());
        assert_eq!(dec.remaining(), 1);
    }
}
