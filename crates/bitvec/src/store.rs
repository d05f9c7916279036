//! The backend abstraction the bitmap indexes are generic over.

use crate::BitVec64;

/// The words (and, for [`crate::Adaptive`], containers) an operation reads
/// from its operands, accumulated by [`BitStore::tally`].
///
/// `words` counts `u64`-word-equivalents of encoded payload; the per-kind
/// fields count adaptive operand containers touched, by their shape (they
/// stay zero for the other stores). These are the numbers behind the
/// `words_processed` and `containers_*` work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTally {
    /// `u64`-word-equivalents of payload read.
    pub words: u64,
    /// Array-shaped operand containers touched.
    pub array: u64,
    /// Bitmap-shaped operand containers touched.
    pub bitmap: u64,
    /// Run-shaped operand containers touched.
    pub run: u64,
}

impl OpTally {
    /// Total operand containers touched, over all three kinds.
    pub fn containers(&self) -> u64 {
        self.array + self.bitmap + self.run
    }
}

/// A fixed-length bit vector supporting the logical operations the paper's
/// query-evaluation formulas need (OR, AND, XOR, NOT — §4.1).
///
/// Implementations: [`BitVec64`] (uncompressed), [`crate::Wah`] and
/// [`crate::Bbc`] (compressed, with operations on the compressed form).
/// Operands of a binary operation must have equal bit length.
///
/// `Send + Sync` are supertraits so indexes generic over a store are
/// shareable access methods (parallel batch execution, `Arc<dyn>`
/// registries); every store is plain owned data, so this costs nothing.
pub trait BitStore: Clone + Send + Sync {
    /// Encodes an uncompressed bit vector.
    fn from_bitvec(bits: &BitVec64) -> Self;

    /// Decodes back to an uncompressed bit vector.
    fn to_bitvec(&self) -> BitVec64;

    /// An all-zeros vector of `len` bits.
    fn zeros(len: usize) -> Self;

    /// An all-ones vector of `len` bits.
    fn ones(len: usize) -> Self;

    /// Number of bits.
    fn len(&self) -> usize;

    /// `true` if the vector has zero bits.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bitwise AND.
    fn and(&self, other: &Self) -> Self;

    /// Bitwise OR.
    fn or(&self, other: &Self) -> Self;

    /// Bitwise XOR.
    fn xor(&self, other: &Self) -> Self;

    /// Bitwise NOT within the vector's length.
    fn not(&self) -> Self;

    /// Number of set bits.
    fn count_ones(&self) -> usize;

    /// Positions of set bits, ascending.
    fn ones_positions(&self) -> Vec<u32>;

    /// Heap bytes used by the encoded form — the paper's *index size* metric.
    fn size_bytes(&self) -> usize;

    /// Short backend name used in experiment output (e.g. `"wah"`).
    fn backend_name() -> &'static str;

    /// Adds to `tally` the work of reading this vector once as an operand.
    /// Every store's operations run on its encoded form, so the default
    /// charges the encoded size in 64-bit words; [`crate::Adaptive`] counts
    /// its container payloads and shapes instead.
    fn tally(&self, tally: &mut OpTally) {
        tally.words += self.size_bytes().div_ceil(8) as u64;
    }

    /// Serializes the encoded form (used by index persistence).
    fn write_to(&self, w: &mut dyn std::io::Write) -> std::io::Result<()>;

    /// Deserializes a vector written by [`BitStore::write_to`].
    fn read_from(r: &mut dyn std::io::Read) -> std::io::Result<Self>;

    /// Appends one bit, growing the vector by one position (used by the
    /// bitmap indexes' `append_row`).
    ///
    /// The default goes through a decode/re-encode round trip — correct for
    /// every store but `O(len)`; [`BitVec64`] and [`crate::Wah`] override it
    /// with amortized-O(1) tail manipulation.
    fn push_bit(&mut self, bit: bool) {
        let mut plain = self.to_bitvec();
        plain.push_bit(bit);
        *self = Self::from_bitvec(&plain);
    }
}

impl BitStore for BitVec64 {
    fn from_bitvec(bits: &BitVec64) -> Self {
        bits.clone()
    }

    fn to_bitvec(&self) -> BitVec64 {
        self.clone()
    }

    fn zeros(len: usize) -> Self {
        BitVec64::zeros(len)
    }

    fn ones(len: usize) -> Self {
        BitVec64::ones(len)
    }

    fn len(&self) -> usize {
        self.len()
    }

    fn and(&self, other: &Self) -> Self {
        self.and(other)
    }

    fn or(&self, other: &Self) -> Self {
        self.or(other)
    }

    fn xor(&self, other: &Self) -> Self {
        self.xor(other)
    }

    fn not(&self) -> Self {
        self.not()
    }

    fn count_ones(&self) -> usize {
        self.count_ones()
    }

    fn ones_positions(&self) -> Vec<u32> {
        self.iter_ones().collect()
    }

    fn size_bytes(&self) -> usize {
        self.size_bytes()
    }

    fn backend_name() -> &'static str {
        "plain"
    }

    fn write_to(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        crate::io::write_u64(w, self.len() as u64)?;
        crate::io::write_u64(w, self.words().len() as u64)?;
        for &word in self.words() {
            crate::io::write_u64(w, word)?;
        }
        Ok(())
    }

    fn read_from(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        let n_bits = crate::io::read_u64(r)? as usize;
        let n_words = crate::io::read_u64(r)? as usize;
        if n_words != n_bits.div_ceil(64) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "word count disagrees with bit length",
            ));
        }
        // Allocation grows with the payload actually present, so a huge
        // (corrupted) n_bits header fails with EOF instead of an OOM abort.
        let mut words = Vec::with_capacity(n_words.min(1 << 20));
        for _ in 0..n_words {
            words.push(crate::io::read_u64(r)?);
        }
        BitVec64::from_raw_words(words, n_bits)
    }

    fn push_bit(&mut self, bit: bool) {
        BitVec64::push_bit(self, bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec64_implements_store_faithfully() {
        let v = BitVec64::from_ones(100, [3u32, 50, 99]);
        let w = <BitVec64 as BitStore>::from_bitvec(&v);
        assert_eq!(w.to_bitvec(), v);
        assert_eq!(BitStore::count_ones(&w), 3);
        assert_eq!(w.ones_positions(), vec![3, 50, 99]);
        assert_eq!(<BitVec64 as BitStore>::zeros(10).count_ones(), 0);
        assert_eq!(<BitVec64 as BitStore>::ones(10).count_ones(), 10);
        assert_eq!(<BitVec64 as BitStore>::backend_name(), "plain");
    }

    #[test]
    fn default_tally_charges_encoded_words() {
        // 640 bits, one set: 10 plain words, far fewer WAH words.
        let v = BitVec64::from_ones(640, [300u32]);
        let mut t = OpTally::default();
        v.tally(&mut t);
        assert_eq!((t.words, t.containers()), (10, 0));
        let w = crate::Wah::from_bitvec(&v);
        let mut t = OpTally::default();
        w.tally(&mut t);
        assert_eq!(t.words, w.size_bytes().div_ceil(8) as u64);
        assert!(t.words < 10 && t.containers() == 0, "{t:?}");
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use crate::{Adaptive, Bbc, Wah};

    fn sample() -> BitVec64 {
        let mut v = BitVec64::zeros(1000);
        for i in (0..1000).step_by(7) {
            v.set(i, true);
        }
        for i in 300..500 {
            v.set(i, true);
        }
        v
    }

    fn roundtrip<B: BitStore + PartialEq + std::fmt::Debug>() {
        let b = B::from_bitvec(&sample());
        let mut buf: Vec<u8> = Vec::new();
        b.write_to(&mut buf).unwrap();
        let back = B::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, b);
        // Truncation errors cleanly.
        let mut cut = buf.clone();
        cut.truncate(buf.len() - 1);
        assert!(B::read_from(&mut cut.as_slice()).is_err());
        // Zero-length vector roundtrips too.
        let z = B::zeros(0);
        let mut buf: Vec<u8> = Vec::new();
        z.write_to(&mut buf).unwrap();
        assert_eq!(B::read_from(&mut buf.as_slice()).unwrap(), z);
    }

    #[test]
    fn plain_roundtrip() {
        roundtrip::<BitVec64>();
    }

    #[test]
    fn wah_roundtrip() {
        roundtrip::<Wah>();
    }

    #[test]
    fn bbc_roundtrip() {
        roundtrip::<Bbc>();
    }

    #[test]
    fn adaptive_roundtrip() {
        roundtrip::<Adaptive>();
    }

    #[test]
    fn plain_rejects_padding_bits() {
        let v = BitVec64::zeros(70); // 2 words, 6 valid bits in word 1
        let mut buf: Vec<u8> = Vec::new();
        BitStore::write_to(&v, &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] = 0x80; // set a padding bit in the final word
        assert!(<BitVec64 as BitStore>::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn wah_rejects_wrong_group_coverage() {
        let w = Wah::encode(&sample());
        let mut buf: Vec<u8> = Vec::new();
        w.write_to(&mut buf).unwrap();
        // Claim a longer bitmap than the payload covers.
        buf[0] = buf[0].wrapping_add(64);
        assert!(<Wah as BitStore>::read_from(&mut buf.as_slice()).is_err());
    }
}
