//! SHA-1, implemented in-tree.
//!
//! Chord assigns identifiers by hashing names with SHA-1 (Stoica et al.);
//! the paper's two-level index hashes triple attributes the same way. The
//! sanctioned dependency list carries no hash crate, so the 80-round
//! SHA-1 compression function lives here. (SHA-1 is used for key
//! *distribution*, not security; collision weakness is irrelevant.)
//!
//! [`Sha1`] streams: a key of several parts is fed part by part, and
//! nothing is copied beyond the one 64-byte block it holds.
//!
//! The compression function has two kernels with one output: the x86-64
//! SHA extensions (`sha1rnds4`, `sha1nexte`, `sha1msg1`, `sha1msg2`) when
//! the CPU reports them, portable scalar code otherwise. The CPU picks,
//! never a setting; [`sha1_kernel`] names the pick.

/// A streaming SHA-1: feed bytes with [`Sha1::update`], read the digest
/// with [`Sha1::finish`]. Holds one partial block; never allocates.
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
    block: [u8; 64],
    /// Bytes buffered in `block`.
    filled: usize,
    /// Bytes fed so far.
    total: u64,
    kernel: Kernel,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::with_kernel(Kernel::detect())
    }
}

impl Sha1 {
    /// A hasher that has been fed nothing.
    pub fn new() -> Self {
        Sha1::default()
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha1 {
            h: [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0],
            block: [0; 64],
            filled: 0,
            total: 0,
            kernel,
        }
    }

    /// Feeds `data`: whole blocks are compressed in place, the tail is
    /// kept for the next call.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = (64 - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return;
            }
            self.kernel.compress(&mut self.h, &self.block);
            self.filled = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            self.kernel.compress(&mut self.h, block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        self.block[..tail.len()].copy_from_slice(tail);
        self.filled = tail.len();
    }

    /// Pads the message (`0x80`, zeros, the bit length) and returns the
    /// digest.
    pub fn finish(mut self) -> [u8; 20] {
        let bits = self.total.wrapping_mul(8);
        self.block[self.filled] = 0x80;
        self.block[self.filled + 1..].fill(0);
        if self.filled >= 56 {
            self.kernel.compress(&mut self.h, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bits.to_be_bytes());
        self.kernel.compress(&mut self.h, &self.block);
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.h) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The top 64 bits of [`finish`](Sha1::finish)'s digest.
    pub fn finish_u64(self) -> u64 {
        let d = self.finish();
        u64::from_be_bytes(d[..8].try_into().expect("8 bytes"))
    }
}

/// The name of the compression kernel this CPU runs: `"sha-ni"` (the
/// x86-64 SHA extensions) or `"scalar"`.
pub fn sha1_kernel() -> &'static str {
    match Kernel::detect() {
        Kernel::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Kernel::ShaNi => "sha-ni",
    }
}

/// Which compression function a hasher runs. Only [`Kernel::detect`]
/// makes a `ShaNi`, and only on a CPU that has the extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The fastest kernel this CPU runs (the standard library caches the
    /// CPUID answer, so this is a few loads).
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Scalar
    }

    #[inline]
    fn compress(self, h: &mut [u32; 5], block: &[u8; 64]) {
        match self {
            Kernel::Scalar => compress(h, block),
            // SAFETY: `compress_sha_ni` needs the `sha`, `ssse3` and
            // `sse4.1` target features (`sse2` is x86-64's baseline), and
            // a `Kernel::ShaNi` exists only where `Kernel::detect` saw
            // the CPU report all three.
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => unsafe { compress_sha_ni(h, block) },
        }
    }
}

/// One round: `f` is the round function of `b, c, d`, `k` its constant.
#[inline(always)]
fn round(s: &mut [u32; 5], f: u32, k: u32, w: u32) {
    let [a, b, c, d, e] = *s;
    let temp = a.rotate_left(5).wrapping_add(f).wrapping_add(e).wrapping_add(k).wrapping_add(w);
    *s = [temp, a, b.rotate_left(30), c, d];
}

/// The compression function over one 64-byte block: the 80 rounds run as
/// four loops of 20, one per round function.
fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (wi, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(word.try_into().expect("4 bytes"));
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let mut s = *h;
    for &wi in &w[..20] {
        let [_, b, c, d, _] = s;
        round(&mut s, (b & c) | (!b & d), 0x5A82_7999, wi);
    }
    for &wi in &w[20..40] {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0x6ED9_EBA1, wi);
    }
    for &wi in &w[40..60] {
        let [_, b, c, d, _] = s;
        round(&mut s, (b & c) | (b & d) | (c & d), 0x8F1B_BCDC, wi);
    }
    for &wi in &w[60..] {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0xCA62_C1D6, wi);
    }
    for (hi, si) in h.iter_mut().zip(s) {
        *hi = hi.wrapping_add(si);
    }
}

/// The compression function on the x86-64 SHA extensions, bit for bit
/// the scalar [`compress`]. A vector holds four consecutive words, the
/// earliest in its highest lane; `sha1rnds4` runs four rounds, and
/// `sha1nexte` derives the next four's `e` from the state before them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(h: &mut [u32; 5], block: &[u8; 64]) {
    use std::arch::x86_64::*;
    let word = |i: usize| i32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    // The message schedule, four words per vector: the block's sixteen,
    // then w[j] = rotl1(w[j-3] ^ w[j-8] ^ w[j-14] ^ w[j-16]) in fours.
    let mut w = [_mm_setzero_si128(); 20];
    for (j, v) in w.iter_mut().take(4).enumerate() {
        *v = _mm_set_epi32(word(4 * j), word(4 * j + 1), word(4 * j + 2), word(4 * j + 3));
    }
    for j in 4..20 {
        let x = _mm_xor_si128(_mm_sha1msg1_epu32(w[j - 4], w[j - 3]), w[j - 2]);
        w[j] = _mm_sha1msg2_epu32(x, w[j - 1]);
    }
    let abcd0 = _mm_set_epi32(h[0] as i32, h[1] as i32, h[2] as i32, h[3] as i32);
    let e0 = _mm_set_epi32(h[4] as i32, 0, 0, 0);
    let mut abcd = abcd0;
    let mut e = _mm_add_epi32(e0, w[0]);
    for j in 0..20 {
        let before = abcd;
        // The round function and constant change every twenty rounds.
        abcd = match j / 5 {
            0 => _mm_sha1rnds4_epu32::<0>(abcd, e),
            1 => _mm_sha1rnds4_epu32::<1>(abcd, e),
            2 => _mm_sha1rnds4_epu32::<2>(abcd, e),
            _ => _mm_sha1rnds4_epu32::<3>(abcd, e),
        };
        // After the last four rounds, `e` is the final one plus h[4].
        e = _mm_sha1nexte_epu32(before, if j < 19 { w[j + 1] } else { e0 });
    }
    let abcd = _mm_add_epi32(abcd0, abcd);
    *h = [
        _mm_extract_epi32::<3>(abcd) as u32,
        _mm_extract_epi32::<2>(abcd) as u32,
        _mm_extract_epi32::<1>(abcd) as u32,
        _mm_extract_epi32::<0>(abcd) as u32,
        _mm_extract_epi32::<3>(e) as u32,
    ];
}

/// Computes the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut hasher = Sha1::new();
    hasher.update(data);
    hasher.finish()
}

/// The top 64 bits of the SHA-1 digest, used as a Chord identifier before
/// truncation to the ring's bit width.
pub fn sha1_u64(data: &[u8]) -> u64 {
    let mut hasher = Sha1::new();
    hasher.update(data);
    hasher.finish_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-shot SHA-1 the streaming hasher replaced: copy the
    /// message, pad it byte by byte, compress every block. The oracle.
    fn oneshot(data: &[u8]) -> [u8; 20] {
        let mut h: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];
        let ml = (data.len() as u64).wrapping_mul(8);
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&ml.to_be_bytes());
        for chunk in message.chunks_exact(64) {
            oneshot_block(&mut h, chunk);
        }
        let mut out = [0u8; 20];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The oracle's compression of one block: the 80 rounds in one loop.
    fn oneshot_block(h: &mut [u32; 5], chunk: &[u8]) {
        let mut w = [0u32; 80];
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let temp =
                a.rotate_left(5).wrapping_add(f).wrapping_add(e).wrapping_add(k).wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }
        for (hi, x) in h.iter_mut().zip([a, b, c, d, e]) {
            *hi = hi.wrapping_add(x);
        }
    }

    /// The kernels this CPU can run: the scalar one always, the hardware
    /// one when `Kernel::detect` picks it.
    fn kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if Kernel::detect() != Kernel::Scalar {
            ks.push(Kernel::detect());
        }
        ks
    }

    /// The digest of `data` fed to a hasher on `kernel` in pieces cut at
    /// `cuts` (offsets, any order, clamped to the input).
    fn streamed(kernel: Kernel, data: &[u8], cuts: &[usize]) -> [u8; 20] {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut hasher = Sha1::with_kernel(kernel);
        let mut at = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            hasher.update(&data[at..cut]);
            at = cut;
        }
        hasher.finish()
    }

    #[test]
    fn every_length_to_200_streams_as_the_oneshot_digest() {
        // Every padding edge: 55 (length fits), 56 (a second block), 63,
        // 64 (an exact block), 119 / 120 (the same two blocks on). On
        // every kernel, so a SHA host still tests the scalar fallback.
        let kernels = kernels();
        eprintln!("SHA-1 kernels under test: {kernels:?}");
        for n in 0..=200usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 31 + n) as u8).collect();
            let want = oneshot(&data);
            assert_eq!(sha1(&data), want, "one call, {n} bytes");
            for &kernel in &kernels {
                for cuts in [vec![], vec![1], vec![n / 2], vec![55, 56, 64], vec![63, 64, 119, 120]]
                {
                    let got = streamed(kernel, &data, &cuts);
                    assert_eq!(got, want, "{kernel:?}, {n} bytes cut at {cuts:?}");
                }
                let bytewise: Vec<usize> = (0..n).collect();
                let got = streamed(kernel, &data, &bytewise);
                assert_eq!(got, want, "{kernel:?}, {n} bytes one at a time");
            }
        }
    }

    proptest! {
        #[test]
        fn every_kernel_compresses_a_random_state_and_block_as_the_oracle(
            state in prop::collection::vec(any::<u32>(), 5),
            block in prop::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 5] = state.try_into().unwrap();
            let mut want = state;
            oneshot_block(&mut want, &block);
            let block: [u8; 64] = block.try_into().unwrap();
            for kernel in kernels() {
                let mut h = state;
                kernel.compress(&mut h, &block);
                prop_assert_eq!(h, want, "{:?}", kernel);
            }
        }

        #[test]
        fn random_inputs_in_random_splits_equal_the_oneshot_digest(
            data in prop::collection::vec(any::<u8>(), 0..600),
            cuts in prop::collection::vec(0usize..600, 0..8),
        ) {
            prop_assert_eq!(streamed(Kernel::detect(), &data, &cuts), oneshot(&data));
            prop_assert_eq!(sha1_u64(&data), u64::from_be_bytes(oneshot(&data)[..8].try_into().unwrap()));
        }
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn known_vectors() {
        // FIPS-180 test vectors.
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            hex(&sha1(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn long_input_crosses_block_boundaries() {
        // 1000 'a's spans many 64-byte blocks and a padding boundary.
        let input = vec![b'a'; 1000];
        assert_eq!(hex(&sha1(&input)), "291e9a6c66994949b57ba5e650361e98fc36b1ba");
    }

    #[test]
    fn boundary_lengths_55_56_64() {
        // Padding edge cases: 55 (fits), 56 (new block), 64 (exact block).
        for n in [55usize, 56, 63, 64, 65] {
            let input = vec![b'x'; n];
            let d1 = sha1(&input);
            let d2 = sha1(&input);
            assert_eq!(d1, d2);
            assert_ne!(d1, sha1(&vec![b'x'; n + 1]));
        }
    }

    #[test]
    fn u64_projection_is_prefix() {
        let d = sha1(b"chord");
        let expect = u64::from_be_bytes(d[..8].try_into().unwrap());
        assert_eq!(sha1_u64(b"chord"), expect);
    }
}
